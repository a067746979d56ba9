//! Expected results, checked in.
//!
//! `golden/<workload>.tsv` maps a request key to the item count, byte
//! length and FNV-1a-64 of its serialized result. The files are written
//! once by `--bless`, which refuses to write a digest the Core
//! interpreter (`ExecutionMode::NoAlgebra`) does not reproduce, so the
//! reference never comes from the compiled path a run measures.

use std::collections::HashMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub items: usize,
    pub bytes: usize,
    pub fnv: u64,
}

impl Digest {
    pub fn of(items: usize, serialized: &[u8]) -> Digest {
        Digest {
            items,
            bytes: serialized.len(),
            fnv: fnv1a64(serialized),
        }
    }
}

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub type Golden = HashMap<String, Digest>;

/// Parses `key<TAB>items<TAB>bytes<TAB>fnv-hex` lines; `#` starts a comment.
pub fn parse(text: &str) -> Result<Golden, String> {
    let mut out = Golden::new();
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| format!("golden line {}: {what}: {line:?}", n + 1);
        let fields: Vec<&str> = line.split('\t').collect();
        let [key, items, bytes, fnv] = fields[..] else {
            return Err(bad("expected four tab-separated fields"));
        };
        let digest = Digest {
            items: items.parse().map_err(|_| bad("bad item count"))?,
            bytes: bytes.parse().map_err(|_| bad("bad byte length"))?,
            fnv: u64::from_str_radix(fnv, 16).map_err(|_| bad("bad digest"))?,
        };
        if out.insert(key.to_string(), digest).is_some() {
            return Err(bad("duplicate key"));
        }
    }
    Ok(out)
}

/// Renders rows in the order given (the order `--bless` produced them).
pub fn format(header: &str, rows: &[(String, Digest)]) -> String {
    let mut out = String::new();
    for line in header.lines() {
        let _ = writeln!(out, "# {line}");
    }
    for (key, d) in rows {
        let _ = writeln!(out, "{key}\t{}\t{}\t{:016x}", d.items, d.bytes, d.fnv);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn format_then_parse() {
        let rows = vec![
            ("Q1".to_string(), Digest::of(1, b"Kasimir Abel")),
            ("T07/A3".to_string(), Digest::of(0, b"")),
        ];
        let text = format("two rows\nsecond header line", &rows);
        assert!(text.starts_with("# two rows\n# second header line\nQ1\t1\t12\t"));
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["Q1"], rows[0].1);
        assert_eq!(parsed["T07/A3"].bytes, 0);
    }

    #[test]
    fn rejects_malformed_rows() {
        assert!(parse("Q1\t1\t12").is_err());
        assert!(parse("Q1\tx\t12\tff").is_err());
        assert!(parse("Q1\t1\t12\tnothex").is_err());
        assert!(parse("Q1\t1\t12\tff\nQ1\t1\t12\tff").is_err());
        assert!(parse("# only a comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn checked_in_files_parse_and_cover_their_workloads() {
        for w in crate::workload::Workload::ALL {
            let golden = parse(w.golden_text()).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            for key in w.keys() {
                assert!(
                    golden.contains_key(&key),
                    "{}: no golden row for {key}",
                    w.name()
                );
            }
        }
    }
}
