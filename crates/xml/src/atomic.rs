//! Atomic values and atomic types.
//!
//! [`AtomicType`] enumerates the nineteen primitive XML Schema datatypes
//! plus the two ubiquitous XPath additions (`xs:integer`, a derived numeric
//! the algebra treats natively, and `xdt:untypedAtomic`, the type of
//! atomized untyped content). [`AtomicValue`] carries the corresponding
//! value representations. Type *relationships* (promotion, casting,
//! `fs:convert-operand`) live in the `xqr-types` crate; this module only
//! knows each value's own type and lexical form.

use std::fmt;
use std::rc::Rc;

use crate::decimal::Decimal;
use crate::qname::QName;
use crate::temporal::{Date, DateTime, Duration, Time};
use crate::XmlError;

/// The atomic types known to the engine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum AtomicType {
    // The 19 primitive XML Schema datatypes:
    String,
    Boolean,
    Decimal,
    Float,
    Double,
    Duration,
    DateTime,
    Time,
    Date,
    GYearMonth,
    GYear,
    GMonthDay,
    GDay,
    GMonth,
    HexBinary,
    Base64Binary,
    AnyUri,
    QName,
    Notation,
    // XPath additions:
    Integer,
    UntypedAtomic,
}

impl AtomicType {
    /// All types enumerable by `promoteToSimpleTypes` (Fig. 6): the paper
    /// notes a join key can be stored under "no more than nineteen" types.
    pub const ALL: [AtomicType; 21] = [
        AtomicType::String,
        AtomicType::Boolean,
        AtomicType::Decimal,
        AtomicType::Float,
        AtomicType::Double,
        AtomicType::Duration,
        AtomicType::DateTime,
        AtomicType::Time,
        AtomicType::Date,
        AtomicType::GYearMonth,
        AtomicType::GYear,
        AtomicType::GMonthDay,
        AtomicType::GDay,
        AtomicType::GMonth,
        AtomicType::HexBinary,
        AtomicType::Base64Binary,
        AtomicType::AnyUri,
        AtomicType::QName,
        AtomicType::Notation,
        AtomicType::Integer,
        AtomicType::UntypedAtomic,
    ];

    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            AtomicType::Integer | AtomicType::Decimal | AtomicType::Float | AtomicType::Double
        )
    }

    /// The `xs:`/`xdt:` lexical name.
    pub fn name(self) -> &'static str {
        match self {
            AtomicType::String => "xs:string",
            AtomicType::Boolean => "xs:boolean",
            AtomicType::Decimal => "xs:decimal",
            AtomicType::Float => "xs:float",
            AtomicType::Double => "xs:double",
            AtomicType::Duration => "xs:duration",
            AtomicType::DateTime => "xs:dateTime",
            AtomicType::Time => "xs:time",
            AtomicType::Date => "xs:date",
            AtomicType::GYearMonth => "xs:gYearMonth",
            AtomicType::GYear => "xs:gYear",
            AtomicType::GMonthDay => "xs:gMonthDay",
            AtomicType::GDay => "xs:gDay",
            AtomicType::GMonth => "xs:gMonth",
            AtomicType::HexBinary => "xs:hexBinary",
            AtomicType::Base64Binary => "xs:base64Binary",
            AtomicType::AnyUri => "xs:anyURI",
            AtomicType::QName => "xs:QName",
            AtomicType::Notation => "xs:NOTATION",
            AtomicType::Integer => "xs:integer",
            AtomicType::UntypedAtomic => "xdt:untypedAtomic",
        }
    }

    /// Looks an atomic type up by its local name (`string`, `untypedAtomic`, …).
    pub fn by_local_name(name: &str) -> Option<AtomicType> {
        AtomicType::ALL
            .iter()
            .copied()
            .find(|t| t.name().split_once(':').map(|(_, l)| l) == Some(name))
    }
}

impl fmt::Display for AtomicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single atomic value.
#[derive(Clone, Debug, PartialEq)]
pub enum AtomicValue {
    String(Rc<str>),
    Boolean(bool),
    Decimal(Decimal),
    Integer(i64),
    Double(f64),
    Float(f32),
    UntypedAtomic(Rc<str>),
    AnyUri(Rc<str>),
    QName(QName),
    Date(Date),
    Time(Time),
    DateTime(DateTime),
    Duration(Duration),
    GYear(i32),
    GYearMonth(i32, u8),
    GMonth(u8),
    GMonthDay(u8, u8),
    GDay(u8),
    HexBinary(Rc<[u8]>),
    Base64Binary(Rc<[u8]>),
}

impl AtomicValue {
    pub fn string(s: impl Into<Rc<str>>) -> Self {
        AtomicValue::String(s.into())
    }

    pub fn untyped(s: impl Into<Rc<str>>) -> Self {
        AtomicValue::UntypedAtomic(s.into())
    }

    pub fn type_of(&self) -> AtomicType {
        match self {
            AtomicValue::String(_) => AtomicType::String,
            AtomicValue::Boolean(_) => AtomicType::Boolean,
            AtomicValue::Decimal(_) => AtomicType::Decimal,
            AtomicValue::Integer(_) => AtomicType::Integer,
            AtomicValue::Double(_) => AtomicType::Double,
            AtomicValue::Float(_) => AtomicType::Float,
            AtomicValue::UntypedAtomic(_) => AtomicType::UntypedAtomic,
            AtomicValue::AnyUri(_) => AtomicType::AnyUri,
            AtomicValue::QName(_) => AtomicType::QName,
            AtomicValue::Date(_) => AtomicType::Date,
            AtomicValue::Time(_) => AtomicType::Time,
            AtomicValue::DateTime(_) => AtomicType::DateTime,
            AtomicValue::Duration(_) => AtomicType::Duration,
            AtomicValue::GYear(_) => AtomicType::GYear,
            AtomicValue::GYearMonth(..) => AtomicType::GYearMonth,
            AtomicValue::GMonth(_) => AtomicType::GMonth,
            AtomicValue::GMonthDay(..) => AtomicType::GMonthDay,
            AtomicValue::GDay(_) => AtomicType::GDay,
            AtomicValue::HexBinary(_) => AtomicType::HexBinary,
            AtomicValue::Base64Binary(_) => AtomicType::Base64Binary,
        }
    }

    /// The XPath string value (`fn:string` on an atomic).
    pub fn string_value(&self) -> String {
        match self {
            AtomicValue::String(s) | AtomicValue::UntypedAtomic(s) | AtomicValue::AnyUri(s) => {
                s.to_string()
            }
            AtomicValue::Boolean(b) => b.to_string(),
            AtomicValue::Decimal(d) => d.to_string(),
            AtomicValue::Integer(i) => i.to_string(),
            AtomicValue::Double(d) => format_double(*d),
            AtomicValue::Float(fl) => format_double(*fl as f64),
            AtomicValue::QName(q) => q.lexical(),
            AtomicValue::Date(d) => d.to_string(),
            AtomicValue::Time(t) => t.to_string(),
            AtomicValue::DateTime(dt) => dt.to_string(),
            AtomicValue::Duration(d) => d.to_string(),
            AtomicValue::GYear(y) => format!("{y:04}"),
            AtomicValue::GYearMonth(y, m) => format!("{y:04}-{m:02}"),
            AtomicValue::GMonth(m) => format!("--{m:02}"),
            AtomicValue::GMonthDay(m, d) => format!("--{m:02}-{d:02}"),
            AtomicValue::GDay(d) => format!("---{d:02}"),
            AtomicValue::HexBinary(b) => b.iter().map(|x| format!("{x:02X}")).collect(),
            AtomicValue::Base64Binary(b) => base64_encode(b),
        }
    }

    /// Numeric view as f64, when the value is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AtomicValue::Integer(i) => Some(*i as f64),
            AtomicValue::Decimal(d) => Some(d.to_f64()),
            AtomicValue::Double(d) => Some(*d),
            AtomicValue::Float(f) => Some(*f as f64),
            _ => None,
        }
    }

    /// Parses a double using XML Schema's lexical space (INF, -INF, NaN):
    /// exactly the strings [`is_double_lexical`] accepts, after trimming.
    pub fn parse_double(s: &str) -> crate::Result<f64> {
        let t = s.trim();
        let invalid = || XmlError::new("FORG0001", format!("invalid xs:double: {s:?}"));
        match t {
            "INF" | "+INF" => Ok(f64::INFINITY),
            "-INF" => Ok(f64::NEG_INFINITY),
            "NaN" => Ok(f64::NAN),
            // Rust's own grammar is wider (`inf`, `infinity`, `nan` in any
            // case); on the numerals it is the same.
            _ if is_double_lexical(t) => t.parse::<f64>().map_err(|_| invalid()),
            _ => Err(invalid()),
        }
    }

    /// Parses an integer per `xs:integer`.
    pub fn parse_integer(s: &str) -> crate::Result<i64> {
        let t = s.trim();
        let t = t.strip_prefix('+').unwrap_or(t);
        t.parse::<i64>()
            .map_err(|_| XmlError::new("FORG0001", format!("invalid xs:integer: {s:?}")))
    }

    /// Parses a boolean per `xs:boolean` ("true"/"false"/"1"/"0").
    pub fn parse_boolean(s: &str) -> crate::Result<bool> {
        match s.trim() {
            "true" | "1" => Ok(true),
            "false" | "0" => Ok(false),
            other => Err(XmlError::new(
                "FORG0001",
                format!("invalid xs:boolean: {other:?}"),
            )),
        }
    }
}

/// The `xs:double` lexical space (no surrounding whitespace): a decimal
/// numeral with an optional exponent, `(\+|-)?([0-9]+(\.[0-9]*)?|\.[0-9]+)
/// ([Ee](\+|-)?[0-9]+)?`, or `INF`, `+INF`, `-INF`, `NaN`. No allocation,
/// so a caller can rule a string out before paying for an error.
pub fn is_double_lexical(t: &str) -> bool {
    if matches!(t, "INF" | "+INF" | "-INF" | "NaN") {
        return true;
    }
    let b = t.as_bytes();
    let mut i = usize::from(matches!(b.first(), Some(b'+' | b'-')));
    let digits = |i: &mut usize| {
        let start = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i - start
    };
    let mut mantissa = digits(&mut i);
    if b.get(i) == Some(&b'.') {
        i += 1;
        mantissa += digits(&mut i);
    }
    if mantissa == 0 {
        return false;
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if digits(&mut i) == 0 {
            return false;
        }
    }
    i == b.len()
}

/// XPath number-to-string conversion: integers without exponent or trailing
/// `.0`, specials as `INF`/`-INF`/`NaN`.
pub fn format_double(d: f64) -> String {
    if d.is_nan() {
        return "NaN".into();
    }
    if d.is_infinite() {
        return if d > 0.0 { "INF".into() } else { "-INF".into() };
    }
    if d == d.trunc() && d.abs() < 1e15 {
        // Avoid "-0"
        let i = d as i64;
        if i == 0 && d.is_sign_negative() {
            return "0".into();
        }
        return i.to_string();
    }
    format!("{d}")
}

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Minimal base64 encoder for `xs:base64Binary` string values.
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = (b[0] as u32) << 16 | (b[1] as u32) << 8 | b[2] as u32;
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            B64[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Minimal base64 decoder.
pub fn base64_decode(s: &str) -> crate::Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut buf: u32 = 0;
    let mut bits = 0;
    for c in s.bytes() {
        if c.is_ascii_whitespace() || c == b'=' {
            continue;
        }
        let v = B64
            .iter()
            .position(|&b| b == c)
            .ok_or_else(|| XmlError::new("FORG0001", "invalid base64"))? as u32;
        buf = buf << 6 | v;
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            out.push((buf >> bits) as u8);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_of_matches_variant() {
        assert_eq!(AtomicValue::Integer(3).type_of(), AtomicType::Integer);
        assert_eq!(
            AtomicValue::untyped("x").type_of(),
            AtomicType::UntypedAtomic
        );
        assert_eq!(AtomicValue::Boolean(true).type_of(), AtomicType::Boolean);
    }

    #[test]
    fn string_values() {
        assert_eq!(AtomicValue::Integer(-7).string_value(), "-7");
        assert_eq!(AtomicValue::Double(2.0).string_value(), "2");
        assert_eq!(AtomicValue::Double(f64::INFINITY).string_value(), "INF");
        assert_eq!(AtomicValue::Double(f64::NAN).string_value(), "NaN");
        assert_eq!(AtomicValue::Double(2.5).string_value(), "2.5");
        assert_eq!(AtomicValue::Boolean(false).string_value(), "false");
        assert_eq!(AtomicValue::GMonthDay(2, 29).string_value(), "--02-29");
    }

    #[test]
    fn double_lexical_space() {
        assert_eq!(AtomicValue::parse_double("INF").unwrap(), f64::INFINITY);
        assert!(AtomicValue::parse_double("NaN").unwrap().is_nan());
        assert_eq!(AtomicValue::parse_double(" 1e3 ").unwrap(), 1000.0);
        assert!(AtomicValue::parse_double("one").is_err());
        for ok in ["1", "+1.", "-.5", "1.5E+3", "0e0", "-0", "+INF", "-INF"] {
            assert!(is_double_lexical(ok), "{ok}");
            assert!(AtomicValue::parse_double(ok).is_ok(), "{ok}");
        }
        // Rust's `f64::from_str` takes these; XML Schema does not.
        for bad in [
            "inf", "Infinity", "infinity", "nan", "-NaN", "+NaN", "INFINITY", ".", "e5", "1e",
            "1e+", "1.5.", "", "+", "1 2", "0x10",
        ] {
            assert!(!is_double_lexical(bad), "{bad}");
            assert_eq!(
                AtomicValue::parse_double(bad).unwrap_err().code,
                "FORG0001",
                "{bad}"
            );
        }
    }

    #[test]
    fn boolean_lexical_space() {
        assert!(AtomicValue::parse_boolean("1").unwrap());
        assert!(!AtomicValue::parse_boolean(" false ").unwrap());
        assert!(AtomicValue::parse_boolean("TRUE").is_err());
    }

    #[test]
    fn by_local_name_lookup() {
        assert_eq!(
            AtomicType::by_local_name("string"),
            Some(AtomicType::String)
        );
        assert_eq!(
            AtomicType::by_local_name("untypedAtomic"),
            Some(AtomicType::UntypedAtomic)
        );
        assert_eq!(AtomicType::by_local_name("noSuchType"), None);
    }

    #[test]
    fn base64_round_trip() {
        for data in [&b""[..], b"f", b"fo", b"foo", b"foobar", b"\x00\xff\x10"] {
            let enc = base64_encode(data);
            assert_eq!(base64_decode(&enc).unwrap(), data);
        }
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn nineteen_primitives_plus_two() {
        assert_eq!(AtomicType::ALL.len(), 21);
        let primitives = AtomicType::ALL
            .iter()
            .filter(|t| !matches!(t, AtomicType::Integer | AtomicType::UntypedAtomic))
            .count();
        assert_eq!(primitives, 19, "the paper's 'no more than nineteen' bound");
    }
}
