//! Property-based tests over the core invariants:
//!
//! * all execution modes (and all three join algorithms) agree on randomly
//!   generated join queries over randomly typed data — the central
//!   correctness claim behind the Section 6 hash join;
//! * the XML parser/serializer round-trips generated trees;
//! * decimals round-trip their lexical forms;
//! * `clio:deep-distinct` keeps the items a serialization-keyed dedup
//!   keeps, in order;
//! * the rewriter never changes query results (checked via random nested
//!   queries).

use proptest::prelude::*;
use xqr::engine::{CompileOptions, Engine, ExecutionMode};

// ===== generators ==========================================================

/// A join-key value rendered into query text, mixing the type categories
/// that exercise fs:convert-operand (Table 2): integers, decimals, doubles,
/// and strings-of-digits (untyped-ish content).
fn key_literal() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..8).prop_map(|i| i.to_string()),
        (0i64..8).prop_map(|i| format!("{i}.0")),
        (0i64..8).prop_map(|i| format!("{i}e0")),
        (0i64..8).prop_map(|i| format!("'{i}'")),
        (0i64..4).prop_map(|i| format!("'k{i}'")),
    ]
}

fn key_list(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(key_literal(), 0..max).prop_map(|v| format!("({})", v.join(", ")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Join semantics: for random left/right key lists, the correlated
    /// count query must agree across all execution modes and all join
    /// algorithms. General comparisons over mixed numeric/string values
    /// follow the paper's convert-operand semantics, so a string key never
    /// silently equals a numeric key — and the hash join must reproduce
    /// nested-loop results exactly, including match multiplicities.
    #[test]
    fn joins_agree_on_random_keys(left in key_list(7), right in key_list(7)) {
        let q = format!(
            "for $x in {left} \
             let $m := for $y in {right} where $y = $x return $y \
             return count($m)"
        );
        let e = Engine::new();
        let mut outputs = Vec::new();
        for mode in [
            ExecutionMode::NoAlgebra,
            ExecutionMode::AlgebraNoOptim,
            ExecutionMode::OptimNestedLoop,
            ExecutionMode::OptimHashJoin,
            ExecutionMode::OptimSortJoin,
        ] {
            let out = e
                .prepare(&q, &CompileOptions::mode(mode))
                .unwrap()
                .run_to_string(&e);
            // Comparing a string to a number raises XPTY0004: modes must
            // agree on *whether* it errors too.
            outputs.push(out.map_err(|err| format!("{err}")));
        }
        for w in outputs.windows(2) {
            prop_assert_eq!(&w[0], &w[1], "query: {}", q);
        }
    }

    /// Ordering: order by over random keys agrees across modes and is a
    /// permutation of the input.
    #[test]
    fn order_by_agrees(keys in prop::collection::vec(0i64..50, 0..12)) {
        let list = keys
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let q = format!("for $x in ({list}) order by $x descending return $x");
        let e = Engine::new();
        let base = e
            .prepare(&q, &CompileOptions::mode(ExecutionMode::NoAlgebra))
            .unwrap()
            .run_to_string(&e)
            .unwrap();
        let opt = e.execute_to_string(&q).unwrap();
        prop_assert_eq!(&base, &opt);
        let mut sorted = keys.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let expected = sorted
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        prop_assert_eq!(opt, expected);
    }

    /// Positional predicates match the naive definition.
    #[test]
    fn positional_predicates(n in 0usize..10, pos in 1i64..12) {
        let list = (0..n).map(|i| i.to_string()).collect::<Vec<_>>().join(", ");
        let q = format!("({list})[{pos}]");
        let e = Engine::new();
        let out = e.execute_to_string(&q).unwrap();
        let expected = if (pos as usize) <= n {
            (pos - 1).to_string()
        } else {
            String::new()
        };
        prop_assert_eq!(out, expected);
    }

    /// Arithmetic distributes over modes.
    #[test]
    fn arithmetic_agrees(a in -50i64..50, b in -50i64..50, c in 1i64..9) {
        let q = format!("({a} + {b}) * {c} - {a} idiv {c}");
        let e = Engine::new();
        let base = e
            .prepare(&q, &CompileOptions::mode(ExecutionMode::NoAlgebra))
            .unwrap()
            .run_to_string(&e)
            .unwrap();
        prop_assert_eq!(base, e.execute_to_string(&q).unwrap());
    }
}

// ===== XML round-trip ======================================================

/// Random tree rendered as an XML string.
fn arb_xml_tree() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        "[a-z]{1,8}".prop_map(|t| t),
        Just("<leaf/>".to_string()),
        "[a-z]{1,5}".prop_map(|v| format!("<e a=\"{v}\"/>")),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        (prop::collection::vec(inner, 0..4), "[a-z]{1,6}")
            .prop_map(|(children, name)| format!("<{name}>{}</{name}>", children.join("")))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// serialize(parse(x)) == normalize(x) for generated documents.
    #[test]
    fn xml_round_trip(tree in arb_xml_tree()) {
        let doc = format!("<root>{tree}</root>");
        let parsed = xqr::xml::parse_document(&doc, &xqr::xml::ParseOptions::default()).unwrap();
        let serialized = xqr::xml::serialize::serialize_node(&parsed.root());
        let reparsed = xqr::xml::parse_document(&serialized, &xqr::xml::ParseOptions::default())
            .unwrap();
        let again = xqr::xml::serialize::serialize_node(&reparsed.root());
        prop_assert_eq!(serialized, again);
    }

    /// Decimal lexical round-trip.
    #[test]
    fn decimal_round_trip(i in -1_000_000i64..1_000_000, frac in 0u32..1_000_000) {
        let s = format!("{}.{:06}", i, frac);
        let d = xqr::xml::Decimal::parse(&s).unwrap();
        let d2 = xqr::xml::Decimal::parse(&d.to_string()).unwrap();
        prop_assert_eq!(d, d2);
    }

    /// The query parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(input in "\\PC{0,120}") {
        let _ = xqr::frontend::parse_query(&input);
    }
}

/// Regression (code review): promoted hash keys can collide lossily — two
/// distinct decimals that round to the same float must NOT hash-join.
#[test]
fn hash_join_rechecks_original_values() {
    let e = Engine::new();
    let q = "for $x in (16777216.0) \
             let $m := for $y in (16777217.0) where $y = $x return $y \
             return count($m)";
    for mode in [ExecutionMode::OptimNestedLoop, ExecutionMode::OptimHashJoin] {
        let out = e
            .prepare(q, &CompileOptions::mode(mode))
            .unwrap()
            .run_to_string(&e)
            .unwrap();
        assert_eq!(out, "0", "{mode:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cast join keys (both sides `cast as xs:integer`) go through the
    /// Table 2 enumeration like any other key; results must still match
    /// nested loop.
    #[test]
    fn specialized_join_agrees(
        left in prop::collection::vec(0i64..6, 0..7),
        right in prop::collection::vec(0i64..6, 0..7),
    ) {
        let l = left.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
        let r = right.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
        let q = format!(
            "for $x in ({l}) \
             let $m := for $y in ({r}) \
                       where ($y cast as xs:integer) = ($x cast as xs:integer) return $y \
             return count($m)"
        );
        let e = Engine::new();
        let nl = e
            .prepare(&q, &CompileOptions::mode(ExecutionMode::OptimNestedLoop))
            .unwrap()
            .run_to_string(&e)
            .unwrap();
        let hash = e
            .prepare(&q, &CompileOptions::mode(ExecutionMode::OptimHashJoin))
            .unwrap()
            .run_to_string(&e)
            .unwrap();
        prop_assert_eq!(nl, hash);
    }
}

// ===== join-key promotion pre-check =========================================

/// Strings near the lexical forms the hash join's untyped promotion tries:
/// numerals, Rust-only float words, dates, times, dateTimes, booleans,
/// and random text over their alphabet plus two multi-byte characters.
fn near_lexical() -> impl Strategy<Value = String> {
    const ALPHABET: &[char] = &[
        '0', '1', '2', '9', '-', '+', ':', '.', 'T', 'Z', 'e', 'E', 'I', 'N', 'F', 'a', 'n', 'i',
        'f', 't', 'y', 'r', 'u', 'l', 's', 'x', ' ', 'é', '€',
    ];
    let tz = || {
        prop_oneof![
            Just(String::new()),
            Just("Z".to_string()),
            (0u32..16, 0u32..61).prop_map(|(h, m)| format!("+{h:02}:{m:02}")),
            (0u32..16, 0u32..61).prop_map(|(h, m)| format!("-{h:02}:{m:02}")),
        ]
    };
    prop_oneof![
        prop::collection::vec(0usize..ALPHABET.len(), 0..14)
            .prop_map(|ix| ix.iter().map(|&i| ALPHABET[i]).collect::<String>()),
        (0i64..3000, 0i64..15, 0i64..34, tz())
            .prop_map(|(y, m, d, z)| format!("{y:04}-{m:02}-{d:02}{z}")),
        (0i64..26, 0i64..62, 0i64..62, 0i64..1000, tz())
            .prop_map(|(h, m, s, f, z)| format!("{h:02}:{m:02}:{s:02}.{f}{z}")),
        (1990i64..2010, 1i64..13, 1i64..29, 0i64..25, tz())
            .prop_map(|(y, m, d, h, z)| format!("{y}-{m:02}-{d:02}T{h:02}:30:00{z}")),
        (-1000i64..1000, 0i64..100, -30i64..30).prop_map(|(i, f, e)| format!(" {i}.{f}e{e}")),
        prop_oneof![
            Just("inf"),
            Just("-Infinity"),
            Just("NaN"),
            Just("nan"),
            Just("+INF"),
            Just("true"),
            Just(" 0 "),
            Just("false"),
            Just("1."),
            Just(".5"),
            Just("."),
            Just("-")
        ]
        .prop_map(str::to_string),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The hash join's promotion pre-check never rules out a string the
    /// cast accepts, so pre-check plus cast accepts exactly what
    /// `cast_from_string` does; and the `xs:double` grammar is Rust's
    /// float grammar except for the words Rust alone takes.
    #[test]
    fn promotion_pre_check_agrees_with_the_cast(s in near_lexical()) {
        use xqr::types::cast::cast_from_string;
        use xqr::types::convert::may_cast_from_string;
        use xqr::xml::AtomicType as T;
        let t = s.trim();
        for ty in [T::Double, T::Float, T::Date, T::Time, T::DateTime, T::Boolean] {
            let cast = cast_from_string(&s, ty).is_ok();
            prop_assert_eq!(may_cast_from_string(t, ty) && cast, cast, "{:?} as {}", s, ty);
        }
        let rust_only = {
            let w = t.trim_start_matches(['+', '-']).to_ascii_lowercase();
            matches!(w.as_str(), "inf" | "infinity" | "nan") && !matches!(t, "INF" | "+INF" | "-INF" | "NaN")
        };
        let rust = t.parse::<f64>().is_ok() || matches!(t, "INF" | "+INF" | "-INF" | "NaN");
        prop_assert_eq!(xqr::xml::atomic::is_double_lexical(t), rust && !rust_only, "{:?}", s);
    }
}

// ===== random nested-FLWOR generator =======================================

/// Builds a nested FLWOR query of the given shape: level k iterates its
/// list, correlates with level k-1 through a random comparison in a where
/// clause, aggregates the level below in a let — the general form the
/// Section 5 unnesting pipeline must handle at any depth.
fn build_nested_query(lists: &[Vec<i64>], ops: &[&str], aggs: &[&str]) -> String {
    fn level(lists: &[Vec<i64>], ops: &[&str], aggs: &[&str], l: usize) -> String {
        let list = lists[l]
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let where_clause = if l > 0 {
            format!("where $x{l} {} $x{} ", ops[l - 1], l - 1)
        } else {
            String::new()
        };
        if l + 1 < lists.len() {
            let inner = level(lists, ops, aggs, l + 1);
            format!(
                "for $x{l} in ({list}) {where_clause}\
                 let $a{l} := ({inner}) \
                 return ($x{l}, {}($a{l}))",
                aggs[l]
            )
        } else {
            format!("for $x{l} in ({list}) {where_clause}return $x{l} * 2")
        }
    }
    level(lists, ops, aggs, 0)
}

fn small_list() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(0i64..5, 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The unnesting pipeline must preserve semantics for arbitrarily
    /// shaped correlated nestings (2–4 levels, random comparison ops and
    /// aggregates) — interpreter, naive algebra, NL and hash joins all
    /// agree.
    #[test]
    fn random_nested_flwors_agree(
        lists in prop::collection::vec(small_list(), 2..4),
        op_idx in prop::collection::vec(0usize..5, 3),
        agg_idx in prop::collection::vec(0usize..3, 3),
    ) {
        const OPS: [&str; 5] = ["=", "!=", "<", "<=", ">="];
        const AGGS: [&str; 3] = ["count", "sum", "string-join-lite"];
        let ops: Vec<&str> = op_idx.iter().map(|i| OPS[*i]).collect();
        let aggs: Vec<&str> = agg_idx
            .iter()
            .map(|i| if AGGS[*i] == "string-join-lite" { "count" } else { AGGS[*i] })
            .collect();
        let q = build_nested_query(&lists, &ops, &aggs);
        let e = Engine::new();
        let mut outs = Vec::new();
        for mode in ExecutionMode::ALL {
            let out = e
                .prepare(&q, &CompileOptions::mode(mode))
                .unwrap_or_else(|err| panic!("prepare {q}: {err}"))
                .run_to_string(&e)
                .unwrap_or_else(|err| panic!("{mode:?} {q}: {err}"));
            outs.push(out);
        }
        for w in outs.windows(2) {
            prop_assert_eq!(&w[0], &w[1], "query: {}", q);
        }
    }
}

// ===== axis invariants ======================================================

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Navigation invariants on random trees: descendant results are in
    /// document order without duplicates; parent is the inverse of child;
    /// following/preceding partition the document around each node.
    #[test]
    fn axis_invariants(tree in arb_xml_tree()) {
        use xqr::xml::axes::{tree_join, Axis, KindTest, NodeTest};
        use xqr::xml::node::TrivialHierarchy;
        use xqr::xml::{Item, Sequence};

        let doc = format!("<root>{tree}</root>");
        let parsed = xqr::xml::parse_document(&doc, &xqr::xml::ParseOptions::default()).unwrap();
        let root = parsed.root();
        let everything = tree_join(
            &Sequence::singleton(root.clone()),
            Axis::DescendantOrSelf,
            &NodeTest::Kind(KindTest::AnyKind),
            &TrivialHierarchy,
        )
        .unwrap();
        // Document order + uniqueness.
        let keys: Vec<_> = everything
            .iter()
            .map(|i| i.as_node().unwrap().order_key())
            .collect();
        let mut sorted = keys.clone();
        sorted.dedup();
        prop_assert_eq!(&keys, &sorted, "sorted and duplicate-free");

        for item in everything.iter() {
            let Item::Node(n) = item else { unreachable!() };
            // child∘parent ⊇ self (every child's parent is the node).
            for c in n.children() {
                prop_assert!(c.parent().unwrap().same_node(n));
            }
            if n.same_node(&root) {
                continue;
            }
            // following ∪ preceding ∪ ancestors ∪ self-or-descendants
            // covers the whole tree exactly once (ignoring attributes).
            let fol = tree_join(
                &Sequence::singleton(n.clone()),
                Axis::Following,
                &NodeTest::Kind(KindTest::AnyKind),
                &TrivialHierarchy,
            )
            .unwrap();
            let pre = tree_join(
                &Sequence::singleton(n.clone()),
                Axis::Preceding,
                &NodeTest::Kind(KindTest::AnyKind),
                &TrivialHierarchy,
            )
            .unwrap();
            let anc = tree_join(
                &Sequence::singleton(n.clone()),
                Axis::AncestorOrSelf,
                &NodeTest::Kind(KindTest::AnyKind),
                &TrivialHierarchy,
            )
            .unwrap();
            let desc = tree_join(
                &Sequence::singleton(n.clone()),
                Axis::Descendant,
                &NodeTest::Kind(KindTest::AnyKind),
                &TrivialHierarchy,
            )
            .unwrap();
            prop_assert_eq!(
                fol.len() + pre.len() + anc.len() + desc.len(),
                everything.len(),
                "axes partition the tree around {:?}",
                n
            );
        }
    }
}

// ===== clio:deep-distinct ==================================================

/// Element and attribute names: prefixed and unprefixed, in no namespace,
/// in one namespace under two prefixes, and in a default namespace.
const DD_NAMES: [(Option<&str>, Option<&str>, &str); 5] = [
    (None, None, "a"),
    (None, None, "b"),
    (Some("p"), Some("urn:x"), "a"),
    (Some("q"), Some("urn:x"), "a"),
    (None, Some("urn:y"), "a"),
];

/// String values, markup-significant characters included (a text node
/// whose value reads `a="v"` serializes like the attribute `a="v"`).
const DD_VALUES: [&str; 4] = ["v", "w x", "<&\"'>", "a=\"v\""];

fn dd_name(b: u8) -> xqr::xml::QName {
    let (prefix, uri, local) = DD_NAMES[b as usize % DD_NAMES.len()];
    xqr::xml::QName::full(prefix, uri, local)
}

/// One small tree from a script of choices; a script that runs out reads
/// zeros. Equal scripts make equal (but distinct) trees.
fn dd_tree(b: &mut xqr::xml::TreeBuilder, script: &[u8], at: &mut usize, depth: usize) {
    let mut next = || {
        let v = script.get(*at).copied().unwrap_or(0);
        *at += 1;
        v
    };
    b.start_element(dd_name(next()));
    for _ in 0..next() % 3 {
        let name = dd_name(next());
        b.attribute(name, DD_VALUES[next() as usize % DD_VALUES.len()]);
    }
    let children = if depth < 3 { next() % 4 } else { 0 };
    for _ in 0..children {
        let value = DD_VALUES[script.get(*at + 1).copied().unwrap_or(0) as usize % DD_VALUES.len()];
        let kind = script.get(*at).copied().unwrap_or(0) % 5;
        *at += 2;
        match kind {
            0 | 1 => dd_tree(b, script, at, depth + 1),
            2 => b.text(value),
            3 => b.comment(value),
            _ => b.pi("t", value),
        }
    }
    b.end_element();
}

/// The reference: keys are the serialized strings themselves.
fn deep_distinct_by_string(items: &[xqr::xml::Item]) -> Vec<xqr::xml::Item> {
    use xqr::xml::Item;
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for item in items {
        let key = match item {
            Item::Node(n) => xqr::xml::serialize::serialize_node(n),
            Item::Atomic(a) => format!("atom:{}:{}", a.type_of(), a.string_value()),
        };
        if seen.insert(key) {
            out.push(item.clone());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `clio:deep-distinct` keeps exactly the items the serialization-keyed
    /// dedup keeps, in the same order: over roots, documents, non-root
    /// elements, attributes, text, comments, PIs and atomics.
    #[test]
    fn deep_distinct_matches_serialization_keys(
        scripts in prop::collection::vec(prop::collection::vec(0u8..6, 0..14), 1..6),
        picks in prop::collection::vec(0usize..1000, 0..40),
    ) {
        use xqr::xml::{AtomicValue, Item, Sequence, TreeBuilder};
        let mut pool: Vec<Item> = vec![
            Item::Atomic(AtomicValue::Integer(1)),
            Item::Atomic(AtomicValue::string("1")),
            Item::Atomic(AtomicValue::untyped("1")),
            Item::Atomic(AtomicValue::string("v")),
        ];
        for script in &scripts {
            // Each script twice, once under a document node: equal
            // structure, distinct identity, and a document that
            // serializes like its element.
            for in_document in [false, true] {
                let mut b = TreeBuilder::new();
                if in_document {
                    b.start_document();
                }
                dd_tree(&mut b, script, &mut 0, 0);
                if in_document {
                    b.end_document();
                }
                let root = b.finish(None).root();
                pool.push(Item::Node(root.clone()));
                let elements = std::iter::once(root.clone()).chain(root.descendants());
                for n in elements {
                    pool.extend(n.attributes().into_iter().map(Item::Node));
                    if n.id != root.id {
                        pool.push(Item::Node(n));
                    }
                }
            }
        }
        let items: Vec<Item> = picks.iter().map(|&k| pool[k % pool.len()].clone()).collect();
        let expected = deep_distinct_by_string(&items);
        let got = xqr::runtime::functions::call_builtin(
            "clio:deep-distinct",
            &[Sequence::from_vec(items)],
            &xqr::runtime::functions::BuiltinCtx::none(),
        )
        .unwrap();
        prop_assert_eq!(got.len(), expected.len());
        for (g, x) in got.iter().zip(&expected) {
            let same = match (g, x) {
                (Item::Node(a), Item::Node(b)) => a.same_node(b),
                (Item::Atomic(a), Item::Atomic(b)) => {
                    a.type_of() == b.type_of() && a.string_value() == b.string_value()
                }
                _ => false,
            };
            prop_assert!(same, "kept {g:?}, the reference kept {x:?}");
        }
    }
}
