//! Shared helpers for the integration suites. Not a test binary itself
//! (cargo only builds top-level files in `tests/` as binaries).

#![allow(dead_code)] // each test binary uses a different subset

/// A deliberately independent mini JSON parser (objects, arrays, strings,
/// integers, booleans, null) — just enough to validate the hand-rolled
/// profile/metrics/observability emitters without a serde dependency.
pub mod json {
    #[derive(Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Int(i64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_int(&self) -> Option<i64> {
            match self {
                Value::Int(i) => Some(*i),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                let mut fields = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(b, i);
                    let k = match value(b, i)? {
                        Value::Str(s) => s,
                        other => return Err(format!("non-string key {other:?}")),
                    };
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(format!("expected ':' at byte {i}"));
                    }
                    *i += 1;
                    fields.push((k, value(b, i)?));
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                let mut items = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(value(b, i)?);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {i}")),
                    }
                }
            }
            Some(b'"') => {
                *i += 1;
                let mut s = String::new();
                while let Some(&c) = b.get(*i) {
                    *i += 1;
                    match c {
                        b'"' => return Ok(Value::Str(s)),
                        b'\\' => {
                            let esc = *b.get(*i).ok_or("eof in escape")?;
                            *i += 1;
                            match esc {
                                b'"' => s.push('"'),
                                b'\\' => s.push('\\'),
                                b'/' => s.push('/'),
                                b'n' => s.push('\n'),
                                b't' => s.push('\t'),
                                b'r' => s.push('\r'),
                                b'u' => {
                                    let hex = std::str::from_utf8(&b[*i..*i + 4])
                                        .map_err(|e| e.to_string())?;
                                    let cp =
                                        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                    s.push(char::from_u32(cp).ok_or("bad codepoint")?);
                                    *i += 4;
                                }
                                other => return Err(format!("unknown escape \\{}", other as char)),
                            }
                        }
                        other => s.push(other as char),
                    }
                }
                Err("eof in string".to_string())
            }
            Some(b't') if b[*i..].starts_with(b"true") => {
                *i += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*i..].starts_with(b"false") => {
                *i += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*i..].starts_with(b"null") => {
                *i += 4;
                Ok(Value::Null)
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *i;
                if b[*i] == b'-' {
                    *i += 1;
                }
                while *i < b.len() && b[*i].is_ascii_digit() {
                    *i += 1;
                }
                std::str::from_utf8(&b[start..*i])
                    .unwrap()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|e| e.to_string())
            }
            other => Err(format!("unexpected {other:?} at byte {i}")),
        }
    }
}

/// Structural validation of a Prometheus 0.0.4 text exposition: every
/// sample line is `name[{labels}] value` with a well-formed name, and the
/// `quantile` lines of each summary series do not decrease. Returns the
/// number of sample lines.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    use std::collections::HashMap;
    let mut samples = 0usize;
    // Summary series (name + labels other than `quantile`) → last value.
    let mut last_quantile: HashMap<String, f64> = HashMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !rest.starts_with("TYPE ") && !rest.starts_with("HELP ") {
                return Err(format!("unknown comment form: {line:?}"));
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no value on sample line {line:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("non-numeric value on {line:?}"))?;
        samples += 1;
        let (name, labels) = match series.split_once('{') {
            Some((n, l)) => (
                n,
                l.strip_suffix('}')
                    .ok_or_else(|| format!("unterminated labels on {line:?}"))?,
            ),
            None => (series, ""),
        };
        if name
            .chars()
            .any(|c| !c.is_ascii_alphanumeric() && c != '_' && c != ':')
        {
            return Err(format!("bad metric name {name:?}"));
        }
        if labels.contains("quantile=") {
            let key = labels
                .split(',')
                .filter(|kv| !kv.starts_with("quantile="))
                .fold(name.to_string(), |k, kv| k + "," + kv);
            if let Some(prev) = last_quantile.insert(key, value) {
                if value < prev {
                    return Err(format!("quantiles decrease at {line:?}"));
                }
            }
        }
    }
    Ok(samples)
}
