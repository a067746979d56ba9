//! The built-in function library: `fn:*`, `op:*`, and the `fs:*` helpers
//! introduced by normalization (general comparisons carrying the Section 6
//! predicate semantics, arithmetic with promotion, document-order
//! maintenance, attribute value templates, dynamic predicate tests).
//!
//! Shared by the algebraic evaluator (`Call` operator) and the direct Core
//! interpreter, so both execution paths agree on semantics.

use std::collections::HashMap;
use std::collections::HashSet;

use xqr_xml::serialize::{write_node, Markup};
use xqr_xml::{AtomicType, AtomicValue, Decimal, Item, NodeHandle, NodeKind, Sequence, XmlError};

use crate::compare::{
    arithmetic_pair, atomize_optional, effective_boolean_value, general_compare, value_compare,
    CmpOp,
};

/// Context handed to builtins that touch the environment.
pub struct BuiltinCtx<'a> {
    pub documents: Option<&'a HashMap<String, NodeHandle>>,
}

impl<'a> BuiltinCtx<'a> {
    pub fn none() -> BuiltinCtx<'static> {
        BuiltinCtx { documents: None }
    }
}

fn err(code: &'static str, msg: impl Into<String>) -> XmlError {
    XmlError::new(code, msg)
}

fn singleton_string(args: &[Sequence], i: usize) -> xqr_xml::Result<String> {
    let atoms = args[i].atomized();
    match atoms.len() {
        0 => Ok(String::new()),
        1 => Ok(atoms[0].string_value()),
        _ => Err(err("XPTY0004", "expected a single string")),
    }
}

fn bool_seq(b: bool) -> Sequence {
    Sequence::singleton(AtomicValue::Boolean(b))
}

fn int_seq(i: i64) -> Sequence {
    Sequence::singleton(AtomicValue::Integer(i))
}

/// Is `name` one of the built-in functions this module implements?
pub fn is_builtin(name: &str) -> bool {
    BUILTINS.contains(&name)
}

const BUILTINS: &[&str] = &[
    "data",
    "string",
    "concat",
    "string-join",
    "contains",
    "starts-with",
    "ends-with",
    "substring",
    "substring-before",
    "substring-after",
    "string-length",
    "upper-case",
    "lower-case",
    "normalize-space",
    "translate",
    "count",
    "sum",
    "avg",
    "min",
    "max",
    "empty",
    "exists",
    "not",
    "boolean",
    "distinct-values",
    "reverse",
    "subsequence",
    "insert-before",
    "remove",
    "index-of",
    "zero-or-one",
    "one-or-more",
    "exactly-one",
    "number",
    "abs",
    "round",
    "floor",
    "ceiling",
    "name",
    "local-name",
    "namespace-uri",
    "root",
    "deep-equal",
    "doc",
    "document",
    "fs:avt",
    "fs:distinct-docorder",
    "fs:predicate-test",
    "fs:root",
    "fs:general-eq",
    "fs:general-ne",
    "fs:general-lt",
    "fs:general-le",
    "fs:general-gt",
    "fs:general-ge",
    "fs:value-eq",
    "fs:value-ne",
    "fs:value-lt",
    "fs:value-le",
    "fs:value-gt",
    "fs:value-ge",
    "fs:numeric-add",
    "fs:numeric-subtract",
    "fs:numeric-multiply",
    "fs:numeric-divide",
    "fs:numeric-integer-divide",
    "fs:numeric-mod",
    "fs:numeric-unary-minus",
    "op:to",
    "op:union",
    "op:intersect",
    "op:except",
    "op:is-same-node",
    "op:node-before",
    "op:node-after",
    "clio:deep-distinct",
    "compare",
    "codepoints-to-string",
    "string-to-codepoints",
    "round-half-to-even",
    "year-from-date",
    "month-from-date",
    "day-from-date",
    "hours-from-time",
    "minutes-from-time",
    "seconds-from-time",
    "year-from-dateTime",
    "month-from-dateTime",
    "day-from-dateTime",
    "hours-from-dateTime",
    "minutes-from-dateTime",
    "seconds-from-dateTime",
    "timezone-from-date",
    "timezone-from-dateTime",
];

/// Calls a builtin on evaluated arguments.
pub fn call_builtin(
    name: &str,
    args: &[Sequence],
    ctx: &BuiltinCtx<'_>,
) -> xqr_xml::Result<Sequence> {
    match name {
        // ----- comparisons ------------------------------------------------
        n if n.starts_with("fs:general-") => {
            let op = CmpOp::by_suffix(&n["fs:general-".len()..])
                .ok_or_else(|| err("XQRT0003", format!("unknown comparison {n}")))?;
            need_args(args, 2, n)?;
            Ok(bool_seq(general_compare(op, &args[0], &args[1])?))
        }
        n if n.starts_with("fs:value-") => {
            let op = CmpOp::by_suffix(&n["fs:value-".len()..])
                .ok_or_else(|| err("XQRT0003", format!("unknown comparison {n}")))?;
            need_args(args, 2, n)?;
            let x = atomize_optional(&args[0])?;
            let y = atomize_optional(&args[1])?;
            match (x, y) {
                (Some(x), Some(y)) => Ok(bool_seq(value_compare(op, &x, &y)?)),
                _ => Ok(Sequence::empty()),
            }
        }
        // ----- arithmetic -------------------------------------------------
        "fs:numeric-add"
        | "fs:numeric-subtract"
        | "fs:numeric-multiply"
        | "fs:numeric-divide"
        | "fs:numeric-integer-divide"
        | "fs:numeric-mod" => {
            need_args(args, 2, name)?;
            let x = atomize_optional(&args[0])?;
            let y = atomize_optional(&args[1])?;
            match (x, y) {
                (Some(x), Some(y)) => arithmetic(name, &x, &y).map(Sequence::singleton),
                _ => Ok(Sequence::empty()),
            }
        }
        "fs:numeric-unary-minus" => {
            let x = atomize_optional(&args[0])?;
            match x {
                None => Ok(Sequence::empty()),
                Some(v) => {
                    let (v, _, _) = arithmetic_pair(&v, &AtomicValue::Integer(0))?;
                    Ok(Sequence::singleton(match v {
                        AtomicValue::Integer(i) => AtomicValue::Integer(-i),
                        AtomicValue::Decimal(d) => AtomicValue::Decimal(-d),
                        AtomicValue::Double(d) => AtomicValue::Double(-d),
                        AtomicValue::Float(f) => AtomicValue::Float(-f),
                        _ => unreachable!("numeric"),
                    }))
                }
            }
        }
        // ----- sequences --------------------------------------------------
        "data" => Ok(Sequence::from_atomics(args[0].atomized())),
        "count" => Ok(int_seq(args[0].len() as i64)),
        "empty" => Ok(bool_seq(args[0].is_empty())),
        "exists" => Ok(bool_seq(!args[0].is_empty())),
        "not" => Ok(bool_seq(!effective_boolean_value(&args[0])?)),
        "boolean" => Ok(bool_seq(effective_boolean_value(&args[0])?)),
        "reverse" => {
            let mut v: Vec<Item> = args[0].iter().cloned().collect();
            v.reverse();
            Ok(Sequence::from_vec(v))
        }
        "subsequence" => {
            let start = number_arg(args, 1)?.round() as i64;
            let len = if args.len() > 2 {
                number_arg(args, 2)?.round() as i64
            } else {
                i64::MAX
            };
            let items: Vec<Item> = args[0]
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    let pos = *i as i64 + 1;
                    pos >= start && (len == i64::MAX || pos < start + len)
                })
                .map(|(_, it)| it.clone())
                .collect();
            Ok(Sequence::from_vec(items))
        }
        "insert-before" => {
            let pos = (number_arg(args, 1)? as i64).max(1) as usize;
            let mut v: Vec<Item> = args[0].iter().cloned().collect();
            let at = (pos - 1).min(v.len());
            let mut out = v[..at].to_vec();
            out.extend(args[2].iter().cloned());
            out.extend(v.drain(at..));
            Ok(Sequence::from_vec(out))
        }
        "remove" => {
            let pos = number_arg(args, 1)? as i64;
            Ok(Sequence::from_vec(
                args[0]
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (*i as i64 + 1) != pos)
                    .map(|(_, it)| it.clone())
                    .collect(),
            ))
        }
        "index-of" => {
            let target = atomize_optional(&args[1])?
                .ok_or_else(|| err("XPTY0004", "index-of needs a search value"))?;
            let mut out = Vec::new();
            for (i, item) in args[0].iter().enumerate() {
                for a in item.atomized() {
                    if value_compare(CmpOp::Eq, &a, &target).unwrap_or(false) {
                        out.push(Item::Atomic(AtomicValue::Integer(i as i64 + 1)));
                        break;
                    }
                }
            }
            Ok(Sequence::from_vec(out))
        }
        "distinct-values" => {
            let mut seen: HashSet<String> = HashSet::new();
            let mut out = Vec::new();
            for a in args[0].atomized() {
                let key = distinct_key(&a);
                if seen.insert(key) {
                    out.push(Item::Atomic(a));
                }
            }
            Ok(Sequence::from_vec(out))
        }
        "zero-or-one" => {
            if args[0].len() <= 1 {
                Ok(args[0].clone())
            } else {
                Err(err("FORG0003", "zero-or-one: more than one item"))
            }
        }
        "one-or-more" => {
            if args[0].is_empty() {
                Err(err("FORG0004", "one-or-more: empty sequence"))
            } else {
                Ok(args[0].clone())
            }
        }
        "exactly-one" => {
            if args[0].len() == 1 {
                Ok(args[0].clone())
            } else {
                Err(err("FORG0005", "exactly-one: cardinality violation"))
            }
        }
        // ----- aggregates ---------------------------------------------------
        "sum" => aggregate_sum(&args[0], args.get(1)),
        "avg" => {
            if args[0].is_empty() {
                return Ok(Sequence::empty());
            }
            let sum = aggregate_sum(&args[0], None)?;
            let sum = sum.atomized().into_iter().next().expect("sum non-empty");
            let n = AtomicValue::Integer(args[0].len() as i64);
            arithmetic("fs:numeric-divide", &sum, &n).map(Sequence::singleton)
        }
        "min" | "max" => {
            let atoms = numeric_or_string_atoms(&args[0])?;
            let mut best: Option<AtomicValue> = None;
            for a in atoms {
                best = Some(match best {
                    None => a,
                    Some(b) => {
                        let keep_a = value_compare(
                            if name == "min" { CmpOp::Lt } else { CmpOp::Gt },
                            &a,
                            &b,
                        )?;
                        if keep_a {
                            a
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.map(Sequence::singleton).unwrap_or_default())
        }
        // ----- strings ------------------------------------------------------
        "string" => {
            let s = match args[0].len() {
                0 => String::new(),
                1 => args[0].get(0).expect("one").string_value(),
                _ => return Err(err("XPTY0004", "fn:string on a multi-item sequence")),
            };
            Ok(Sequence::singleton(AtomicValue::string(s)))
        }
        "concat" => {
            let mut out = String::new();
            for a in args {
                for atom in a.atomized() {
                    out.push_str(&atom.string_value());
                }
            }
            Ok(Sequence::singleton(AtomicValue::string(out)))
        }
        "string-join" => {
            let sep = singleton_string(args, 1)?;
            let parts: Vec<String> = args[0]
                .atomized()
                .iter()
                .map(|a| a.string_value())
                .collect();
            Ok(Sequence::singleton(AtomicValue::string(parts.join(&sep))))
        }
        "contains" => {
            let h = singleton_string(args, 0)?;
            let n = singleton_string(args, 1)?;
            Ok(bool_seq(h.contains(&n)))
        }
        "starts-with" => {
            let h = singleton_string(args, 0)?;
            let n = singleton_string(args, 1)?;
            Ok(bool_seq(h.starts_with(&n)))
        }
        "ends-with" => {
            let h = singleton_string(args, 0)?;
            let n = singleton_string(args, 1)?;
            Ok(bool_seq(h.ends_with(&n)))
        }
        "substring" => {
            let s = singleton_string(args, 0)?;
            let chars: Vec<char> = s.chars().collect();
            let start = number_arg(args, 1)?.round() as i64;
            let len = if args.len() > 2 {
                number_arg(args, 2)?.round() as i64
            } else {
                i64::MAX
            };
            let out: String = chars
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    let pos = *i as i64 + 1;
                    pos >= start && (len == i64::MAX || pos < start + len)
                })
                .map(|(_, c)| *c)
                .collect();
            Ok(Sequence::singleton(AtomicValue::string(out)))
        }
        "substring-before" => {
            let s = singleton_string(args, 0)?;
            let n = singleton_string(args, 1)?;
            Ok(Sequence::singleton(AtomicValue::string(
                s.find(&n).map(|i| s[..i].to_string()).unwrap_or_default(),
            )))
        }
        "substring-after" => {
            let s = singleton_string(args, 0)?;
            let n = singleton_string(args, 1)?;
            Ok(Sequence::singleton(AtomicValue::string(
                s.find(&n)
                    .map(|i| s[i + n.len()..].to_string())
                    .unwrap_or_default(),
            )))
        }
        "string-length" => Ok(int_seq(singleton_string(args, 0)?.chars().count() as i64)),
        "upper-case" => Ok(Sequence::singleton(AtomicValue::string(
            singleton_string(args, 0)?.to_uppercase(),
        ))),
        "lower-case" => Ok(Sequence::singleton(AtomicValue::string(
            singleton_string(args, 0)?.to_lowercase(),
        ))),
        "normalize-space" => {
            let s = singleton_string(args, 0)?;
            Ok(Sequence::singleton(AtomicValue::string(
                s.split_whitespace().collect::<Vec<_>>().join(" "),
            )))
        }
        "translate" => {
            let s = singleton_string(args, 0)?;
            let from: Vec<char> = singleton_string(args, 1)?.chars().collect();
            let to: Vec<char> = singleton_string(args, 2)?.chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|f| *f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            Ok(Sequence::singleton(AtomicValue::string(out)))
        }
        // ----- numerics -------------------------------------------------------
        "number" => {
            let v = atomize_optional(&args[0])?;
            let d = v
                .and_then(|a| xqr_types::cast_atomic(&a, AtomicType::Double).ok())
                .and_then(|a| a.as_f64())
                .unwrap_or(f64::NAN);
            Ok(Sequence::singleton(AtomicValue::Double(d)))
        }
        "abs" | "round" | "floor" | "ceiling" => {
            let v = atomize_optional(&args[0])?;
            match v {
                None => Ok(Sequence::empty()),
                Some(v) => numeric_unary(name, &v).map(Sequence::singleton),
            }
        }
        // ----- nodes ----------------------------------------------------------
        "name" | "local-name" => {
            let node = singleton_node(&args[0])?;
            let s = match node {
                None => String::new(),
                Some(n) => match n.name() {
                    Some(q) if name == "name" => q.lexical(),
                    Some(q) => q.local_part().to_string(),
                    None => String::new(),
                },
            };
            Ok(Sequence::singleton(AtomicValue::string(s)))
        }
        "namespace-uri" => {
            let node = singleton_node(&args[0])?;
            let s = node
                .and_then(|n| n.name().and_then(|q| q.uri().map(String::from)))
                .unwrap_or_default();
            Ok(Sequence::singleton(AtomicValue::string(s)))
        }
        "root" | "fs:root" => {
            let node = singleton_node(&args[0])?;
            Ok(node
                .map(|n| Sequence::singleton(n.tree_root()))
                .unwrap_or_default())
        }
        "deep-equal" => {
            need_args(args, 2, name)?;
            Ok(bool_seq(deep_equal_sequences(&args[0], &args[1])))
        }
        "doc" | "document" => {
            let uri = singleton_string(args, 0)?;
            let docs = ctx
                .documents
                .ok_or_else(|| err("FODC0002", "no document resolver available"))?;
            docs.get(&uri)
                .cloned()
                .map(Sequence::singleton)
                .ok_or_else(|| err("FODC0002", format!("document not available: {uri}")))
        }
        // ----- op: ------------------------------------------------------------
        "op:to" => {
            let lo = atomize_optional(&args[0])?;
            let hi = atomize_optional(&args[1])?;
            match (lo, hi) {
                (Some(lo), Some(hi)) => {
                    let lo = as_integer(&lo)?;
                    let hi = as_integer(&hi)?;
                    if hi < lo {
                        Ok(Sequence::empty())
                    } else {
                        if (hi - lo) as u64 > 50_000_000 {
                            return Err(err("XQRT0004", "range too large"));
                        }
                        Ok(Sequence::integers(lo..=hi))
                    }
                }
                _ => Ok(Sequence::empty()),
            }
        }
        "op:union" => {
            let mut all: Vec<Item> = args[0].iter().cloned().collect();
            all.extend(args[1].iter().cloned());
            docorder_nodes(Sequence::from_vec(all))
        }
        "op:intersect" => {
            let right: Vec<NodeHandle> = nodes_of(&args[1])?;
            let keep: Vec<Item> = nodes_of(&args[0])?
                .into_iter()
                .filter(|n| right.iter().any(|r| r.same_node(n)))
                .map(Item::Node)
                .collect();
            docorder_nodes(Sequence::from_vec(keep))
        }
        "op:except" => {
            let right: Vec<NodeHandle> = nodes_of(&args[1])?;
            let keep: Vec<Item> = nodes_of(&args[0])?
                .into_iter()
                .filter(|n| !right.iter().any(|r| r.same_node(n)))
                .map(Item::Node)
                .collect();
            docorder_nodes(Sequence::from_vec(keep))
        }
        "op:is-same-node" | "op:node-before" | "op:node-after" => {
            let a = singleton_node(&args[0])?;
            let b = singleton_node(&args[1])?;
            match (a, b) {
                (Some(a), Some(b)) => Ok(bool_seq(match name {
                    "op:is-same-node" => a.same_node(&b),
                    "op:node-before" => a.order_key() < b.order_key(),
                    _ => a.order_key() > b.order_key(),
                })),
                _ => Ok(Sequence::empty()),
            }
        }
        // ----- fs: helpers ------------------------------------------------------
        "fs:avt" => {
            let parts: Vec<String> = args[0]
                .atomized()
                .iter()
                .map(|a| a.string_value())
                .collect();
            Ok(Sequence::singleton(AtomicValue::string(parts.join(" "))))
        }
        "fs:distinct-docorder" => {
            // XPath 2.0 path results: all nodes → sort/dedup in document
            // order; all atomics (a final non-node step) → unchanged; a mix
            // is a type error (XPTY0018).
            let nodes = args[0]
                .iter()
                .filter(|i| matches!(i, Item::Node(_)))
                .count();
            if nodes == args[0].len() {
                docorder_nodes(args[0].clone())
            } else if nodes == 0 {
                Ok(args[0].clone())
            } else {
                Err(err("XPTY0018", "path result mixes nodes and atomic values"))
            }
        }
        "fs:predicate-test" => {
            // Dynamic predicate semantics: a singleton numeric value tests
            // the context position; anything else takes its EBV.
            need_args(args, 2, name)?;
            let v = &args[0];
            if v.len() == 1 {
                if let Some(Item::Atomic(a)) = v.get(0) {
                    if a.type_of().is_numeric() {
                        let pos = atomize_optional(&args[1])?
                            .ok_or_else(|| err("XQRT0003", "missing position"))?;
                        return Ok(bool_seq(value_compare(CmpOp::Eq, a, &pos)?));
                    }
                }
            }
            Ok(bool_seq(effective_boolean_value(v)?))
        }
        "clio:deep-distinct" => Ok(deep_distinct(&args[0])),
        "compare" => {
            let a = atomize_optional(&args[0])?;
            let b = atomize_optional(&args[1])?;
            match (a, b) {
                (Some(a), Some(b)) => {
                    let (x, y) = (a.string_value(), b.string_value());
                    Ok(int_seq(match x.cmp(&y) {
                        std::cmp::Ordering::Less => -1,
                        std::cmp::Ordering::Equal => 0,
                        std::cmp::Ordering::Greater => 1,
                    }))
                }
                _ => Ok(Sequence::empty()),
            }
        }
        "string-to-codepoints" => {
            let s = singleton_string(args, 0)?;
            Ok(Sequence::integers(s.chars().map(|c| c as i64)))
        }
        "codepoints-to-string" => {
            let mut out = String::new();
            for a in args[0].atomized() {
                let cp = as_integer(&a)?;
                let c = u32::try_from(cp)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| err("FOCH0001", format!("invalid codepoint {cp}")))?;
                out.push(c);
            }
            Ok(Sequence::singleton(AtomicValue::string(out)))
        }
        "round-half-to-even" => {
            let v = atomize_optional(&args[0])?;
            match v {
                None => Ok(Sequence::empty()),
                Some(AtomicValue::Integer(i)) => Ok(int_seq(i)),
                Some(AtomicValue::Decimal(d)) => {
                    // Exact fixed-point banker's rounding: no f64 round-trip.
                    const UNIT: i128 = 1_000_000;
                    let units = d.units();
                    let rem = units.rem_euclid(UNIT);
                    let base = units - rem;
                    let rounded = if rem * 2 > UNIT || (rem * 2 == UNIT && (base / UNIT) % 2 != 0) {
                        base + UNIT
                    } else {
                        base
                    };
                    Ok(Sequence::singleton(AtomicValue::Decimal(
                        Decimal::from_units(rounded),
                    )))
                }
                Some(v) => {
                    let d = v
                        .as_f64()
                        .ok_or_else(|| err("XPTY0004", "round-half-to-even on non-numeric"))?;
                    let r = if (d - d.trunc()).abs() == 0.5 {
                        let down = d.floor();
                        if (down as i64) % 2 == 0 {
                            down
                        } else {
                            down + 1.0
                        }
                    } else {
                        d.round()
                    };
                    Ok(Sequence::singleton(if v.type_of() == AtomicType::Float {
                        AtomicValue::Float(r as f32)
                    } else {
                        AtomicValue::Double(r)
                    }))
                }
            }
        }
        n if n.ends_with("-from-date")
            || n.ends_with("-from-dateTime")
            || n.ends_with("-from-time") =>
        {
            let v = atomize_optional(&args[0])?;
            match v {
                None => Ok(Sequence::empty()),
                Some(v) => temporal_component(n, &v),
            }
        }
        other => Err(err("XPST0017", format!("unknown function {other}()"))),
    }
}

/// `fn:year-from-date` and friends: component accessors on the calendar
/// types.
fn temporal_component(name: &str, v: &AtomicValue) -> xqr_xml::Result<Sequence> {
    use AtomicValue as V;
    let bad = || {
        err(
            "XPTY0004",
            format!("{name}() applied to a {} value", v.type_of()),
        )
    };
    let (date, millis) = match v {
        V::Date(d) => (Some(*d), None),
        V::Time(t) => (None, Some(t.millis as i64)),
        V::DateTime(dt) => (Some(dt.date), Some(dt.millis as i64)),
        V::UntypedAtomic(_) | V::String(_) => {
            // Lexical convenience: cast to the type the accessor names.
            let target = if name.ends_with("-from-date") {
                AtomicType::Date
            } else if name.ends_with("-from-dateTime") {
                AtomicType::DateTime
            } else {
                AtomicType::Time
            };
            let cast = xqr_types::cast_atomic(v, target)?;
            return temporal_component(name, &cast);
        }
        _ => return Err(bad()),
    };
    let part = name.split("-from-").next().unwrap_or(name);
    let out = match part {
        "year" => AtomicValue::Integer(date.ok_or_else(bad)?.year as i64),
        "month" => AtomicValue::Integer(date.ok_or_else(bad)?.month as i64),
        "day" => AtomicValue::Integer(date.ok_or_else(bad)?.day as i64),
        "hours" => AtomicValue::Integer(millis.ok_or_else(bad)? / 3_600_000),
        "minutes" => AtomicValue::Integer(millis.ok_or_else(bad)? / 60_000 % 60),
        "seconds" => {
            let ms = millis.ok_or_else(bad)?;
            let whole = ms / 1000 % 60;
            let frac = ms % 1000;
            if frac == 0 {
                AtomicValue::Decimal(Decimal::from_i64(whole))
            } else {
                AtomicValue::Decimal(Decimal::from_units(
                    (whole * 1_000_000 + frac * 1000) as i128,
                ))
            }
        }
        "timezone" => match date.ok_or_else(bad)?.tz_minutes {
            None => return Ok(Sequence::empty()),
            Some(m) => AtomicValue::Duration(xqr_xml::temporal::Duration {
                months: 0,
                millis: m as i64 * 60_000,
            }),
        },
        _ => return Err(err("XPST0017", format!("unknown accessor {name}()"))),
    };
    Ok(Sequence::singleton(out))
}

fn need_args(args: &[Sequence], n: usize, name: &str) -> xqr_xml::Result<()> {
    if args.len() == n {
        Ok(())
    } else {
        Err(err(
            "XPST0017",
            format!("{name}() expects {n} arguments, got {}", args.len()),
        ))
    }
}

fn number_arg(args: &[Sequence], i: usize) -> xqr_xml::Result<f64> {
    atomize_optional(&args[i])?
        .and_then(|a| xqr_types::cast_atomic(&a, AtomicType::Double).ok())
        .and_then(|a| a.as_f64())
        .ok_or_else(|| err("XPTY0004", "expected a numeric argument"))
}

fn as_integer(v: &AtomicValue) -> xqr_xml::Result<i64> {
    match xqr_types::cast_atomic(v, AtomicType::Integer)? {
        AtomicValue::Integer(i) => Ok(i),
        _ => unreachable!(),
    }
}

fn singleton_node(seq: &Sequence) -> xqr_xml::Result<Option<NodeHandle>> {
    match seq.len() {
        0 => Ok(None),
        1 => match seq.get(0).expect("one") {
            Item::Node(n) => Ok(Some(n.clone())),
            Item::Atomic(_) => Err(err("XPTY0004", "expected a node")),
        },
        _ => Err(err("XPTY0004", "expected at most one node")),
    }
}

fn nodes_of(seq: &Sequence) -> xqr_xml::Result<Vec<NodeHandle>> {
    seq.iter()
        .map(|i| match i {
            Item::Node(n) => Ok(n.clone()),
            Item::Atomic(_) => Err(err("XPTY0004", "expected nodes only")),
        })
        .collect()
}

fn docorder_nodes(seq: Sequence) -> xqr_xml::Result<Sequence> {
    let mut nodes = nodes_of(&seq)?;
    nodes.sort_by_key(|n| n.order_key());
    nodes.dedup_by(|a, b| a.same_node(b));
    Ok(Sequence::from_vec(
        nodes.into_iter().map(Item::Node).collect(),
    ))
}

/// Arithmetic dispatch after pair promotion.
pub(crate) fn arithmetic(
    name: &str,
    x: &AtomicValue,
    y: &AtomicValue,
) -> xqr_xml::Result<AtomicValue> {
    use AtomicValue as V;
    let (x, y, t) = arithmetic_pair(x, y)?;
    let op = &name["fs:numeric-".len()..];
    // idiv/div special rules.
    if op == "integer-divide" {
        let (fx, fy) = (x.as_f64().expect("num"), y.as_f64().expect("num"));
        if fy == 0.0 {
            return Err(err("FOAR0001", "integer division by zero"));
        }
        let q = (fx / fy).trunc();
        // NaN operands or a quotient outside the i64 range must be a
        // dynamic error, not a saturated/zeroed cast.
        if !q.is_finite() || q < i64::MIN as f64 || q > i64::MAX as f64 {
            return Err(err("FOAR0002", "integer division overflow"));
        }
        return Ok(V::Integer(q as i64));
    }
    if op == "divide" && matches!(t, AtomicType::Integer | AtomicType::Decimal) {
        // Integer ÷ integer is decimal division per F&O.
        let dx = match &x {
            V::Integer(i) => Decimal::from_i64(*i),
            V::Decimal(d) => *d,
            _ => unreachable!(),
        };
        let dy = match &y {
            V::Integer(i) => Decimal::from_i64(*i),
            V::Decimal(d) => *d,
            _ => unreachable!(),
        };
        return dx
            .checked_div(dy)
            .map(V::Decimal)
            .ok_or_else(|| err("FOAR0001", "division by zero"));
    }
    Ok(match (x, y) {
        (V::Integer(a), V::Integer(b)) => match op {
            "add" => V::Integer(
                a.checked_add(b)
                    .ok_or_else(|| err("FOAR0002", "overflow"))?,
            ),
            "subtract" => V::Integer(
                a.checked_sub(b)
                    .ok_or_else(|| err("FOAR0002", "overflow"))?,
            ),
            "multiply" => V::Integer(
                a.checked_mul(b)
                    .ok_or_else(|| err("FOAR0002", "overflow"))?,
            ),
            "mod" => {
                if b == 0 {
                    return Err(err("FOAR0001", "modulus by zero"));
                }
                V::Integer(a % b)
            }
            _ => unreachable!("{op}"),
        },
        (V::Decimal(a), V::Decimal(b)) => match op {
            "add" => V::Decimal(
                a.checked_add(b)
                    .ok_or_else(|| err("FOAR0002", "overflow"))?,
            ),
            "subtract" => V::Decimal(
                a.checked_sub(b)
                    .ok_or_else(|| err("FOAR0002", "overflow"))?,
            ),
            "multiply" => V::Decimal(
                a.checked_mul(b)
                    .ok_or_else(|| err("FOAR0002", "overflow"))?,
            ),
            "mod" => {
                let q = a
                    .checked_div(b)
                    .ok_or_else(|| err("FOAR0001", "modulus by zero"))?;
                let trunc = Decimal::from_i64(q.trunc_to_i64());
                // a - trunc(a/b)*b can overflow the fixed-point range for
                // extreme operands: a dynamic error, not a panic.
                let prod = trunc
                    .checked_mul(b)
                    .ok_or_else(|| err("FOAR0002", "overflow in mod"))?;
                V::Decimal(
                    a.checked_sub(prod)
                        .ok_or_else(|| err("FOAR0002", "overflow in mod"))?,
                )
            }
            _ => unreachable!("{op}"),
        },
        (vx, vy) => {
            let (a, b) = (vx.as_f64().expect("num"), vy.as_f64().expect("num"));
            let r = match op {
                "add" => a + b,
                "subtract" => a - b,
                "multiply" => a * b,
                "divide" => a / b,
                "mod" => a % b,
                _ => unreachable!("{op}"),
            };
            if t == AtomicType::Float {
                V::Float(r as f32)
            } else {
                V::Double(r)
            }
        }
    })
}

fn numeric_unary(name: &str, v: &AtomicValue) -> xqr_xml::Result<AtomicValue> {
    use AtomicValue as V;
    let v = match v.type_of() {
        AtomicType::UntypedAtomic => xqr_types::cast_atomic(v, AtomicType::Double)?,
        t if t.is_numeric() => v.clone(),
        t => return Err(err("XPTY0004", format!("{name}() on non-numeric {t}"))),
    };
    Ok(match (name, v) {
        ("abs", V::Integer(i)) => V::Integer(i.abs()),
        ("abs", V::Decimal(d)) => V::Decimal(d.abs()),
        ("abs", V::Double(d)) => V::Double(d.abs()),
        ("abs", V::Float(f)) => V::Float(f.abs()),
        ("round", V::Integer(i)) => V::Integer(i),
        ("round", V::Decimal(d)) => V::Decimal(d.round()),
        ("round", V::Double(d)) => V::Double((d + 0.5).floor()),
        ("round", V::Float(f)) => V::Float((f + 0.5).floor()),
        ("floor", V::Integer(i)) => V::Integer(i),
        ("floor", V::Decimal(d)) => V::Decimal(d.floor()),
        ("floor", V::Double(d)) => V::Double(d.floor()),
        ("floor", V::Float(f)) => V::Float(f.floor()),
        ("ceiling", V::Integer(i)) => V::Integer(i),
        ("ceiling", V::Decimal(d)) => V::Decimal(d.ceiling()),
        ("ceiling", V::Double(d)) => V::Double(d.ceil()),
        ("ceiling", V::Float(f)) => V::Float(f.ceil()),
        _ => unreachable!(),
    })
}

fn aggregate_sum(seq: &Sequence, zero: Option<&Sequence>) -> xqr_xml::Result<Sequence> {
    if seq.is_empty() {
        return Ok(match zero {
            Some(z) => z.clone(),
            None => int_seq(0),
        });
    }
    let mut acc: Option<AtomicValue> = None;
    for a in seq.atomized() {
        acc = Some(match acc {
            None => {
                // Untyped leading values become doubles.
                if a.type_of() == AtomicType::UntypedAtomic {
                    xqr_types::cast_atomic(&a, AtomicType::Double)?
                } else {
                    a
                }
            }
            Some(b) => arithmetic("fs:numeric-add", &b, &a)?,
        });
    }
    Ok(Sequence::singleton(acc.expect("non-empty")))
}

fn numeric_or_string_atoms(seq: &Sequence) -> xqr_xml::Result<Vec<AtomicValue>> {
    Ok(seq
        .atomized()
        .into_iter()
        .map(|a| {
            if a.type_of() == AtomicType::UntypedAtomic {
                xqr_types::cast_atomic(&a, AtomicType::Double).unwrap_or(a)
            } else {
                a
            }
        })
        .collect())
}

fn distinct_key(a: &AtomicValue) -> String {
    use AtomicValue as V;
    match a {
        V::Integer(_) | V::Decimal(_) | V::Double(_) | V::Float(_) => {
            format!("num:{}", a.as_f64().expect("numeric"))
        }
        V::String(s) | V::UntypedAtomic(s) | V::AnyUri(s) => format!("str:{s}"),
        V::Boolean(b) => format!("bool:{b}"),
        other => format!("{}:{}", other.type_of(), other.string_value()),
    }
}

/// Deep equality over sequences (fn:deep-equal with default collation).
pub fn deep_equal_sequences(a: &Sequence, b: &Sequence) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b.iter()).all(|(x, y)| deep_equal_items(x, y))
}

fn deep_equal_items(a: &Item, b: &Item) -> bool {
    match (a, b) {
        (Item::Atomic(x), Item::Atomic(y)) => value_compare(CmpOp::Eq, x, y).unwrap_or(false),
        (Item::Node(x), Item::Node(y)) => deep_equal_nodes(x, y),
        _ => false,
    }
}

fn deep_equal_nodes(a: &NodeHandle, b: &NodeHandle) -> bool {
    if a.kind() != b.kind() {
        return false;
    }
    match a.kind() {
        NodeKind::Text | NodeKind::Comment | NodeKind::Pi | NodeKind::Attribute => {
            a.name() == b.name() && a.string_value() == b.string_value()
        }
        NodeKind::Element => {
            if a.name() != b.name() {
                return false;
            }
            let (aa, ba) = (a.attributes(), b.attributes());
            if aa.len() != ba.len() {
                return false;
            }
            for attr in &aa {
                if !ba.iter().any(|other| {
                    other.name() == attr.name() && other.string_value() == attr.string_value()
                }) {
                    return false;
                }
            }
            let (ac, bc) = (a.children(), b.children());
            // Comments/PIs are ignored for element content comparison.
            let keep = |n: &&NodeHandle| matches!(n.kind(), NodeKind::Element | NodeKind::Text);
            let ac: Vec<&NodeHandle> = ac.iter().filter(keep).collect();
            let bc: Vec<&NodeHandle> = bc.iter().filter(keep).collect();
            ac.len() == bc.len()
                && ac
                    .iter()
                    .zip(bc.iter())
                    .all(|(x, y)| deep_equal_nodes(x, y))
        }
        NodeKind::Document => {
            let (ac, bc) = (a.children(), b.children());
            ac.len() == bc.len()
                && ac
                    .iter()
                    .zip(bc.iter())
                    .all(|(x, y)| deep_equal_nodes(x, y))
        }
    }
}

/// Clio's helper: removes deep-equal duplicates, keeping first occurrences
/// in order. Two items are equal when their keys are: a node's key is its
/// serialization ([`serialize_node`](xqr_xml::serialize::serialize_node)),
/// an atomic's is `atom:TYPE:VALUE`. Keys are never built as strings. Each
/// is hashed as the byte stream the serializer writes while it walks the
/// arena, and a hash match is confirmed by comparing the two streams, so
/// equality is exactly equality of the strings.
fn deep_distinct(items: &Sequence) -> Sequence {
    let mut kept: Vec<Item> = Vec::new();
    // Kept items by key hash: the latest one in `heads`, each earlier one
    // with the same hash in `next` of the one after it.
    let mut heads: HashMap<u64, usize> = HashMap::new();
    let mut next: Vec<Option<usize>> = Vec::new();
    let mut scratch = String::new();
    'items: for item in items.iter() {
        let mut h = KeyHash::default();
        write_key(&mut h, item);
        let h = h.0;
        let mut candidate = heads.get(&h).copied();
        while let Some(k) = candidate {
            scratch.clear();
            write_key(&mut scratch, &kept[k]);
            let mut m = KeyMatch {
                expected: scratch.as_bytes(),
                matched: 0,
                equal: true,
            };
            write_key(&mut m, item);
            if m.equal && m.matched == scratch.len() {
                continue 'items;
            }
            candidate = next[k];
        }
        next.push(heads.insert(h, kept.len()));
        kept.push(item.clone());
    }
    Sequence::from_vec(kept)
}

fn write_key<M: Markup>(out: &mut M, item: &Item) {
    match item {
        Item::Node(n) => write_node(out, &n.doc, n.id),
        Item::Atomic(a) => {
            out.put("atom:");
            out.put(a.type_of().name());
            out.put(":");
            out.put(&a.string_value());
        }
    }
}

/// FNV-1a over the key's bytes: the hash depends only on the byte stream,
/// not on how the writer splits it into pieces.
struct KeyHash(u64);

impl Default for KeyHash {
    fn default() -> Self {
        KeyHash(0xcbf2_9ce4_8422_2325)
    }
}

impl Markup for KeyHash {
    fn put(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Compares a key's byte stream against an expected key as it is written.
struct KeyMatch<'a> {
    expected: &'a [u8],
    matched: usize,
    equal: bool,
}

impl Markup for KeyMatch<'_> {
    fn put(&mut self, s: &str) {
        let end = self.matched + s.len();
        if self.equal && self.expected.get(self.matched..end) == Some(s.as_bytes()) {
            self.matched = end;
        } else {
            self.equal = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(name: &str, args: &[Sequence]) -> Sequence {
        call_builtin(name, args, &BuiltinCtx::none()).unwrap()
    }

    fn s(v: &str) -> Sequence {
        Sequence::singleton(AtomicValue::string(v))
    }

    #[test]
    fn string_functions() {
        assert_eq!(call("concat", &[s("a"), s("b"), s("c")]), s("abc"));
        assert_eq!(call("contains", &[s("hello"), s("ell")]), bool_seq(true));
        assert_eq!(
            call("substring", &[s("hello"), Sequence::integers([2])]),
            s("ello")
        );
        assert_eq!(
            call(
                "substring",
                &[s("hello"), Sequence::integers([2]), Sequence::integers([2])]
            ),
            s("el")
        );
        assert_eq!(call("string-length", &[s("héllo")]), int_seq(5));
        assert_eq!(call("normalize-space", &[s("  a   b ")]), s("a b"));
        assert_eq!(call("translate", &[s("abcab"), s("ab"), s("x")]), s("xcx"));
        assert_eq!(call("substring-before", &[s("a=b"), s("=")]), s("a"));
        assert_eq!(call("substring-after", &[s("a=b"), s("=")]), s("b"));
        assert_eq!(
            call("string-join", &[Sequence::integers([1, 2]), s("-")]),
            s("1-2")
        );
    }

    #[test]
    fn aggregates() {
        assert_eq!(call("count", &[Sequence::integers([1, 2, 3])]), int_seq(3));
        assert_eq!(call("sum", &[Sequence::integers([1, 2, 3])]), int_seq(6));
        assert_eq!(call("sum", &[Sequence::empty()]), int_seq(0));
        assert_eq!(call("avg", &[Sequence::empty()]), Sequence::empty());
        // avg of integers is a decimal.
        let avg = call("avg", &[Sequence::integers([1, 2])]);
        assert_eq!(avg.atomized()[0].string_value(), "1.5");
        assert_eq!(call("min", &[Sequence::integers([3, 1, 2])]), int_seq(1));
        assert_eq!(call("max", &[Sequence::integers([3, 1, 2])]), int_seq(3));
        // untyped values aggregate as doubles
        let m = call(
            "max",
            &[Sequence::from_atomics(vec![
                AtomicValue::untyped("10"),
                AtomicValue::untyped("9"),
            ])],
        );
        assert_eq!(m.atomized()[0], AtomicValue::Double(10.0));
    }

    #[test]
    fn arithmetic_semantics() {
        // integer div integer → decimal
        let r = call(
            "fs:numeric-divide",
            &[Sequence::integers([1]), Sequence::integers([2])],
        );
        assert_eq!(r.atomized()[0].string_value(), "0.5");
        let r = call(
            "fs:numeric-integer-divide",
            &[Sequence::integers([7]), Sequence::integers([2])],
        );
        assert_eq!(r, int_seq(3));
        let r = call(
            "fs:numeric-mod",
            &[Sequence::integers([7]), Sequence::integers([2])],
        );
        assert_eq!(r, int_seq(1));
        // empty propagates
        assert!(call(
            "fs:numeric-add",
            &[Sequence::empty(), Sequence::integers([1])]
        )
        .is_empty());
        // division by zero
        assert!(call_builtin(
            "fs:numeric-divide",
            &[Sequence::integers([1]), Sequence::integers([0])],
            &BuiltinCtx::none()
        )
        .is_err());
    }

    #[test]
    fn integer_divide_overflow_is_dynamic_error() {
        // Quotient far outside the i64 range: FOAR0002, not a silent
        // saturated cast (and never a panic).
        let huge = Sequence::singleton(AtomicValue::Double(1.0e300));
        let tiny = Sequence::singleton(AtomicValue::Double(1.0e-300));
        let err = call_builtin(
            "fs:numeric-integer-divide",
            &[huge, tiny],
            &BuiltinCtx::none(),
        )
        .unwrap_err();
        assert_eq!(err.code, "FOAR0002");
        // NaN dividend: FOAR0002, not a silent zero.
        let nan = Sequence::singleton(AtomicValue::Double(f64::NAN));
        let err = call_builtin(
            "fs:numeric-integer-divide",
            &[nan, Sequence::integers([2])],
            &BuiltinCtx::none(),
        )
        .unwrap_err();
        assert_eq!(err.code, "FOAR0002");
    }

    #[test]
    fn decimal_mod_stays_correct_after_hardening() {
        let a = Sequence::singleton(AtomicValue::Decimal(Decimal::parse("7.5").unwrap()));
        let b = Sequence::singleton(AtomicValue::Decimal(Decimal::parse("2").unwrap()));
        let r = call("fs:numeric-mod", &[a, b]);
        assert_eq!(r.atomized()[0].string_value(), "1.5");
    }

    #[test]
    fn general_vs_value_comparisons() {
        let r = call(
            "fs:general-eq",
            &[Sequence::integers([1, 2, 3]), Sequence::integers([3, 9])],
        );
        assert_eq!(r, bool_seq(true));
        let r = call(
            "fs:value-eq",
            &[Sequence::integers([1]), Sequence::integers([1])],
        );
        assert_eq!(r, bool_seq(true));
        let r = call("fs:value-eq", &[Sequence::empty(), Sequence::integers([1])]);
        assert!(r.is_empty());
    }

    #[test]
    fn sequence_functions() {
        assert_eq!(
            call("reverse", &[Sequence::integers([1, 2])]),
            Sequence::integers([2, 1])
        );
        assert_eq!(
            call(
                "subsequence",
                &[
                    Sequence::integers([1, 2, 3, 4]),
                    Sequence::integers([2]),
                    Sequence::integers([2])
                ]
            ),
            Sequence::integers([2, 3])
        );
        assert_eq!(
            call(
                "remove",
                &[Sequence::integers([1, 2, 3]), Sequence::integers([2])]
            ),
            Sequence::integers([1, 3])
        );
        assert_eq!(
            call(
                "index-of",
                &[Sequence::integers([10, 20, 10]), Sequence::integers([10])]
            ),
            Sequence::integers([1, 3])
        );
        assert_eq!(
            call("distinct-values", &[Sequence::integers([1, 2, 1, 3, 2])]),
            Sequence::integers([1, 2, 3])
        );
        // distinct-values merges integer and double forms of the same number
        let r = call(
            "distinct-values",
            &[Sequence::from_atomics(vec![
                AtomicValue::Integer(1),
                AtomicValue::Double(1.0),
            ])],
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn range() {
        assert_eq!(
            call("op:to", &[Sequence::integers([2]), Sequence::integers([5])]),
            Sequence::integers([2, 3, 4, 5])
        );
        assert!(call("op:to", &[Sequence::integers([5]), Sequence::integers([2])]).is_empty());
    }

    #[test]
    fn cardinality_checks() {
        assert!(call_builtin(
            "exactly-one",
            &[Sequence::integers([1, 2])],
            &BuiltinCtx::none()
        )
        .is_err());
        assert!(call_builtin("one-or-more", &[Sequence::empty()], &BuiltinCtx::none()).is_err());
        assert_eq!(call("zero-or-one", &[Sequence::empty()]), Sequence::empty());
    }

    #[test]
    fn predicate_test_dynamic() {
        // Numeric value: position test.
        let r = call(
            "fs:predicate-test",
            &[Sequence::integers([2]), Sequence::integers([2])],
        );
        assert_eq!(r, bool_seq(true));
        let r = call(
            "fs:predicate-test",
            &[Sequence::integers([2]), Sequence::integers([3])],
        );
        assert_eq!(r, bool_seq(false));
        // Boolean-ish value: EBV.
        let r = call(
            "fs:predicate-test",
            &[s("nonempty"), Sequence::integers([9])],
        );
        assert_eq!(r, bool_seq(true));
        let r = call(
            "fs:predicate-test",
            &[Sequence::empty(), Sequence::integers([1])],
        );
        assert_eq!(r, bool_seq(false));
    }

    #[test]
    fn deep_equal_and_distinct() {
        use xqr_xml::parse::{parse_document, ParseOptions};
        let d1 = parse_document("<a x=\"1\"><b>t</b></a>", &ParseOptions::default()).unwrap();
        let d2 = parse_document("<a x=\"1\"><b>t</b></a>", &ParseOptions::default()).unwrap();
        let d3 = parse_document("<a x=\"2\"><b>t</b></a>", &ParseOptions::default()).unwrap();
        let s1 = Sequence::singleton(d1.root().children()[0].clone());
        let s2 = Sequence::singleton(d2.root().children()[0].clone());
        let s3 = Sequence::singleton(d3.root().children()[0].clone());
        assert_eq!(
            call("deep-equal", &[s1.clone(), s2.clone()]),
            bool_seq(true)
        );
        assert_eq!(
            call("deep-equal", &[s1.clone(), s3.clone()]),
            bool_seq(false)
        );
        let all = s1.concat(&s2).concat(&s3);
        let distinct = call("clio:deep-distinct", &[all]);
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn unknown_function_errors() {
        assert!(call_builtin("no-such-fn", &[], &BuiltinCtx::none()).is_err());
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;

    fn call(name: &str, args: &[Sequence]) -> Sequence {
        call_builtin(name, args, &BuiltinCtx::none()).unwrap()
    }

    fn s(v: &str) -> Sequence {
        Sequence::singleton(AtomicValue::string(v))
    }

    #[test]
    fn compare_three_way() {
        assert_eq!(call("compare", &[s("a"), s("b")]), Sequence::integers([-1]));
        assert_eq!(call("compare", &[s("b"), s("b")]), Sequence::integers([0]));
        assert_eq!(call("compare", &[s("c"), s("b")]), Sequence::integers([1]));
        assert!(call("compare", &[Sequence::empty(), s("b")]).is_empty());
    }

    #[test]
    fn codepoints_round_trip() {
        let cps = call("string-to-codepoints", &[s("héllo")]);
        assert_eq!(cps.len(), 5);
        assert_eq!(call("codepoints-to-string", &[cps]), s("héllo"));
        assert!(call_builtin(
            "codepoints-to-string",
            &[Sequence::integers([0x110000])],
            &BuiltinCtx::none()
        )
        .is_err());
    }

    #[test]
    fn round_half_to_even_banker() {
        let half = |v: f64| {
            call(
                "round-half-to-even",
                &[Sequence::singleton(AtomicValue::Double(v))],
            )
            .atomized()[0]
                .string_value()
        };
        assert_eq!(half(0.5), "0");
        assert_eq!(half(1.5), "2");
        assert_eq!(half(2.5), "2");
        assert_eq!(half(-0.5), "0");
        assert_eq!(half(2.4), "2");
        assert!(call("round-half-to-even", &[Sequence::empty()]).is_empty());
    }

    #[test]
    fn date_components() {
        let d = xqr_types::cast::cast_from_string("2004-07-15-05:00", AtomicType::Date).unwrap();
        let arg = [Sequence::singleton(d)];
        assert_eq!(call("year-from-date", &arg), Sequence::integers([2004]));
        assert_eq!(call("month-from-date", &arg), Sequence::integers([7]));
        assert_eq!(call("day-from-date", &arg), Sequence::integers([15]));
        let tz = call("timezone-from-date", &arg);
        assert_eq!(tz.atomized()[0].string_value(), "-PT5H");
    }

    #[test]
    fn time_and_datetime_components() {
        let t = xqr_types::cast::cast_from_string("13:20:30.5", AtomicType::Time).unwrap();
        let arg = [Sequence::singleton(t)];
        assert_eq!(call("hours-from-time", &arg), Sequence::integers([13]));
        assert_eq!(call("minutes-from-time", &arg), Sequence::integers([20]));
        assert_eq!(
            call("seconds-from-time", &arg).atomized()[0].string_value(),
            "30.5"
        );
        let dt = xqr_types::cast::cast_from_string("1999-05-31T13:20:00Z", AtomicType::DateTime)
            .unwrap();
        let arg = [Sequence::singleton(dt)];
        assert_eq!(call("year-from-dateTime", &arg), Sequence::integers([1999]));
        assert_eq!(call("hours-from-dateTime", &arg), Sequence::integers([13]));
        // Lexical convenience: untyped input is cast first.
        assert_eq!(
            call(
                "year-from-date",
                &[Sequence::singleton(AtomicValue::untyped("2003-01-02"))]
            ),
            Sequence::integers([2003])
        );
    }

    #[test]
    fn component_on_wrong_type_errors() {
        assert!(call_builtin(
            "year-from-date",
            &[Sequence::integers([5])],
            &BuiltinCtx::none()
        )
        .is_err());
    }
}

#[cfg(test)]
mod review_regression_tests {
    use super::*;

    #[test]
    fn round_half_to_even_decimal_is_exact() {
        // Regression: big decimals must round exactly (no f64 detour).
        let d = Decimal::parse("123456789.5").unwrap();
        let out = call_builtin(
            "round-half-to-even",
            &[Sequence::singleton(AtomicValue::Decimal(d))],
            &BuiltinCtx::none(),
        )
        .unwrap();
        assert_eq!(out.atomized()[0].string_value(), "123456790");
        let d = Decimal::parse("2.5").unwrap();
        let out = call_builtin(
            "round-half-to-even",
            &[Sequence::singleton(AtomicValue::Decimal(d))],
            &BuiltinCtx::none(),
        )
        .unwrap();
        assert_eq!(out.atomized()[0].string_value(), "2");
        let d = Decimal::parse("-2.5").unwrap();
        let out = call_builtin(
            "round-half-to-even",
            &[Sequence::singleton(AtomicValue::Decimal(d))],
            &BuiltinCtx::none(),
        )
        .unwrap();
        assert_eq!(out.atomized()[0].string_value(), "-2");
    }

    #[test]
    fn timezone_from_datetime_registered() {
        let dt =
            xqr_types::cast::cast_from_string("2001-01-01T00:00:00+05:30", AtomicType::DateTime)
                .unwrap();
        let out = call_builtin(
            "timezone-from-dateTime",
            &[Sequence::singleton(dt)],
            &BuiltinCtx::none(),
        )
        .unwrap();
        assert_eq!(out.atomized()[0].string_value(), "PT5H30M");
    }
}
