//! Oracle differential suite: every algebra `ExecutionMode` (the cursor
//! engine, with its batched comparison kernels, under nested-loop, hash
//! and sort joins, rewritten and not) must agree with the one independent
//! oracle — the Core interpreter (`ExecutionMode::NoAlgebra`) — on the
//! serialized result, and on the **error code** where evaluation fails.
//!
//! Corpora: plain FLWOR / join / unnesting / quantifier / conditional
//! shapes, error-raising queries, a kernel-targeting corpus (mixed
//! numeric/string/untyped keys, NaN, empty operands, `fs:value-*` error
//! order), governed runs, two random generators, and XMark Q1–Q20 and
//! Clio N2–N4 (`xmark_queries.rs` / `clio_queries.rs` loop over
//! `ExecutionMode::ALL`, which has no sort-join mode and no N4).
//!
//! XQuery lets an implementation choose which of several dynamic errors to
//! raise, and whether to raise one at all in an expression it need not
//! evaluate. Where the interpreter and the algebra legitimately differ for
//! that reason, the query is listed in [`ERROR_ORDER_FREEDOM`] with the
//! reason and both outcomes pinned; the comparison is not loosened
//! anywhere else.

use proptest::prelude::*;
use std::time::Duration;
use xqr::engine::{CompileOptions, Engine, EngineError, ExecutionMode, Limits};
use xqr_clio::{generate_dblp, mapping_query, DblpOptions};
use xqr_xmark::{generate, query, GenOptions, QUERY_COUNT};

const ORACLE: ExecutionMode = ExecutionMode::NoAlgebra;

/// Every mode that runs the algebra.
const ALGEBRA_MODES: [ExecutionMode; 4] = [
    ExecutionMode::AlgebraNoOptim,
    ExecutionMode::OptimNestedLoop,
    ExecutionMode::OptimHashJoin,
    ExecutionMode::OptimSortJoin,
];

fn err_code(e: EngineError) -> String {
    match e {
        EngineError::Dynamic(x) => x.code.to_string(),
        EngineError::Syntax(_) => "SYNTAX".to_string(),
        EngineError::LimitExceeded { code, .. } => code.to_string(),
        EngineError::Internal { .. } => "INTERNAL".to_string(),
    }
}

/// Runs to either the serialized result or the error code.
fn outcome(e: &Engine, q: &str, opts: &CompileOptions) -> Result<String, String> {
    match e.prepare(q, opts) {
        Ok(p) => p.run_to_string(e).map_err(err_code),
        Err(err) => Err(err_code(err)),
    }
}

fn assert_agrees_with_oracle(e: &Engine, q: &str, label: &str) {
    let expected = outcome(e, q, &CompileOptions::mode(ORACLE));
    for mode in ALGEBRA_MODES {
        let got = outcome(e, q, &CompileOptions::mode(mode));
        assert_eq!(
            got, expected,
            "{label}: {mode:?} disagrees with the Core interpreter\nquery: {q}"
        );
    }
}

#[test]
fn xmark_q1_to_q20() {
    let xml = generate(&GenOptions::for_bytes(60_000));
    let mut e = Engine::new();
    e.bind_document("auction.xml", &xml)
        .expect("auction document parses");
    for n in 1..=QUERY_COUNT {
        assert_agrees_with_oracle(&e, query(n), &format!("XMark Q{n}"));
    }
}

#[test]
fn clio_n2_n3_n4() {
    let xml = generate_dblp(&DblpOptions::for_bytes(2_500));
    let mut e = Engine::new();
    e.bind_document("dblp.xml", &xml).expect("dblp parses");
    for levels in [2, 3, 4] {
        assert_agrees_with_oracle(&e, &mapping_query(levels), &format!("Clio N{levels}"));
    }
}

const BIB: &str = r#"<bib>
  <book year="1994"><title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Buneman</last><first>Peter</first></author>
    <publisher>Morgan Kaufmann Publishers</publisher><price>39.95</price></book>
  <book year="1999"><title>The Economics of Technology</title>
    <author><last>Gerbarg</last><first>Darcy</first></author>
    <publisher>Kluwer Academic Publishers</publisher><price>129.95</price></book>
</bib>"#;

#[test]
fn fixed_corpus() {
    let mut e = Engine::new();
    e.bind_document("bib.xml", BIB).unwrap();
    let queries: &[&str] = &[
        // Plain FLWOR pipelines (Select / MapConcat / MapIndex chains).
        "for $x in (1,2,3,4) where $x mod 2 = 0 return $x * 10",
        "for $x at $i in ('a','b','c') where $i >= 2 return concat($i, $x)",
        "for $x in (1,2), $y in (10,20) where $x * 10 <= $y return $x + $y",
        // Joins (hash/sort-eligible equality, plus residual conjunct).
        "for $b in doc('bib.xml')/bib/book, $a in $b/author \
         where $a/last = 'Stevens' return $b/title",
        "for $x in (1,2,3), $y in (2,3,4) where $x = $y and $x > 1 return $x",
        // Outer-join / group-by unnesting (OMapConcat, GroupBy breakers).
        "for $b in doc('bib.xml')/bib/book \
         let $cheap := for $p in $b/price where number($p) < 100 return $p \
         return count($cheap)",
        // Order-by breaker downstream of a streaming chain.
        "for $b in doc('bib.xml')/bib/book order by string($b/title) descending \
         return $b/title/text()",
        // Quantifiers (MapSome / MapEvery short-circuits).
        "some $b in doc('bib.xml')/bib/book satisfies $b/@year = 2000",
        "every $b in doc('bib.xml')/bib/book satisfies count($b/author) >= 1",
        // Conditionals in table position and nested FLWOR.
        "if (count(doc('bib.xml')//book) > 2) \
         then for $x in (1,2) return $x else for $x in (8,9) return $x",
        "for $b in doc('bib.xml')/bib/book \
         return <entry>{ $b/title, for $a in $b/author return $a/last }</entry>",
        // Positional predicates and element construction.
        "doc('bib.xml')/bib/book[2]/author[last()]/last/text()",
        "<out>{ for $b in doc('bib.xml')/bib/book[price > 50] return $b/@year }</out>",
    ];
    for q in queries {
        assert_agrees_with_oracle(&e, q, "fixed corpus");
    }
}

/// Error-raising queries: every mode must produce the oracle's code.
#[test]
fn error_corpus_matches_result_and_code() {
    let mut e = Engine::new();
    e.bind_document("bib.xml", BIB).unwrap();
    let queries: &[&str] = &[
        "exactly-one(())",
        "for $x in (1,2) return exactly-one(())",
        "for $x in (1,2,3) where $x idiv 0 = 1 return $x",
        "for $b in doc('bib.xml')/bib/book return $b/title + 1",
        "zero-or-one((1,2))",
        "for $x in ('a','b') order by $x return error:undefined($x)",
        "for $x in (1,2) where exactly-one(()) = 1 return $x",
        "for $x in (1, 'two', 3) where $x lt 5 return $x",
    ];
    for q in queries {
        let expected = outcome(&e, q, &CompileOptions::mode(ORACLE));
        assert!(
            expected.is_err(),
            "corpus entry must raise: {q} -> {expected:?}"
        );
        assert_agrees_with_oracle(&e, q, "error corpus");
    }
}

/// Mixed-type element content: numeric strings, plain strings, doubles,
/// empty elements. General comparisons over these exercise every branch of
/// the kernels — the typed fast lanes, the promotion rules, the
/// error-swallowing conversion semantics, and the per-row fallback.
const MIXED: &str = r#"<data>
  <row><a>1</a><b>10</b></row>
  <row><a>2.5</a><b>2</b></row>
  <row><a>abc</a><b>3</b></row>
  <row><a></a><b>4</b></row>
  <row><a>NaN</a><b>5</b></row>
  <row><b>6</b></row>
  <row><a>-0</a><b>0</b></row>
  <row><a>7</a><a>8</a><b>7.5</b></row>
</data>"#;

#[test]
fn kernel_corpus() {
    let mut e = Engine::new();
    e.bind_document("mixed.xml", MIXED).unwrap();
    let queries: &[&str] = &[
        // The exact fused join shape (Q11/Q12's predicate): a general
        // comparison whose inner operand is const-times-field arithmetic.
        "for $x in (1,2,3,4), $y in (10,20,30) \
         where $x * 10 >= $y return ($x, $y)",
        "for $x in (1.5, 2.5), $y in (1,2,3) where $x > $y return $x + $y",
        // Select-over-Call: predicate over one generator (SelectKernel).
        "for $x in (1,2,3,4,5) where $x * 3 > 7 return $x",
        "for $x in (0.5, 1.5, 2.5) where $x >= 1.5 return $x * 2",
        // Heterogeneous atomization: numeric strings vs numbers. The typed
        // lane must reject (or swallow) exactly what the oracle does.
        "for $r in doc('mixed.xml')/data/row where $r/a > 3 return count($r/b)",
        "for $r in doc('mixed.xml')/data/row where $r/a = $r/b return $r/b/text()",
        "for $r in doc('mixed.xml')/data/row where number($r/a) <= 2.5 return $r/b/text()",
        // NaN never compares (except ne); negative zero equals zero.
        "for $x in (number('NaN'), 1) where $x = $x return $x",
        "for $x in (number('NaN'), 2) where $x != $x return 'nan'",
        "for $x in (-0.0, 1.0) where $x = 0 return 'zero'",
        // Empty sequences: general comparison is existential (empty is
        // never true), value comparison returns empty.
        "for $r in doc('mixed.xml')/data/row where $r/missing > 1 return $r",
        "for $r in doc('mixed.xml')/data/row where $r/a eq '1' return 1",
        // Multi-item operands: general comparison quantifies over both
        // sides; value comparison must raise the same code per row.
        "for $r in doc('mixed.xml')/data/row where $r/a = 8 return count($r/a)",
        "for $x in (1,2) where (1,2,3) = (3,4) return $x",
        // Dynamic errors inside fused operand chains must surface
        // identically (same code, same first-error semantics).
        "for $r in doc('mixed.xml')/data/row where exactly-one($r/a) = 7 return $r",
        // Value comparisons (strict, never a typed lane) beside general.
        "for $x in (1,2,3) where $x eq 2 return $x",
        "for $x in ('a','b') where $x le 'a' return $x",
        // Comparison feeding construction (batch boundary at MapToItem).
        "<out>{ for $x in (1,2,3,4), $y in (2,4) where $x >= $y \
         return <p x='{$x}' y='{$y}'/> }</out>",
    ];
    for q in queries {
        assert_agrees_with_oracle(&e, q, "kernel corpus");
    }
}

/// Three people, four closed auctions (one buyer with three, one item
/// reference dangling), three items: XMark Q9's shape at a size where the
/// answer is checkable by eye.
const AUCTION: &str = r#"<site>
  <regions><europe>
    <item id="i1"><name>clock</name><kind>old</kind></item>
    <item id="i2"><name>lamp</name><kind>new</kind></item>
    <item id="i3"><name>vase</name><kind>old</kind></item>
  </europe></regions>
  <people>
    <person id="p1"><name>Ann</name></person>
    <person id="p2"><name>Bob</name></person>
    <person id="p3"><name>Cy</name></person>
  </people>
  <closed_auctions>
    <closed_auction><buyer person="p1"/><itemref item="i2"/><want>new</want></closed_auction>
    <closed_auction><buyer person="p3"/><itemref item="i1"/><want>new</want></closed_auction>
    <closed_auction><buyer person="p1"/><itemref item="i3"/><want>old</want></closed_auction>
    <closed_auction><buyer person="p1"/><itemref item="i9"/><want>old</want></closed_auction>
  </closed_auctions>
</site>"#;

/// Join operands of every awkward kind: two authors, no author, an empty
/// year, numeric / non-numeric / NaN / missing untyped `n`.
const PUBS: &str = r#"<db>
  <pub><author>A</author><author>B</author><year>2000</year><venue>V1</venue><n>1</n></pub>
  <pub><author>B</author><year>2001</year><venue>V1</venue><n>2.0</n></pub>
  <pub><author>A</author><year>2000</year><venue>V2</venue><n>abc</n></pub>
  <pub><year>2000</year><venue>V1</venue><n>NaN</n></pub>
  <pub><author>C</author><author>A</author><year></year><venue>V2</venue></pub>
</db>"#;

/// Composite-key operands: `@a` and `v` hold signed zeros, NaN and a
/// non-number, `w` is multi-valued or empty, one `k` has no `@a`.
const KEYS: &str = r#"<keys>
  <k id="1" a="0" b="x"><v>0</v><w>1</w></k>
  <k id="2" a="-0" b="x"><v>-0</v><w>1</w><w>2</w></k>
  <k id="3" a="0.0" b="y"><v>0e0</v><w>2</w></k>
  <k id="4" a="NaN" b="x"><v>NaN</v><w/></k>
  <k id="5" b="x"><v>1</v><w>2</w><w>1</w></k>
  <k id="6" a="1" b="y"><v>abc</v><w>0</w></k>
</keys>"#;

/// XMark Q9 on [`AUCTION`]: the inner join sits in the outer `GroupBy`'s
/// per-partition plan, its probe side is `IN`-rooted and its inner side
/// loop-invariant. `extra` is spliced into the innermost `where`.
fn q9_shape(extra: &str) -> String {
    format!(
        "for $p in doc('auction.xml')/site/people/person \
         let $a := for $t in doc('auction.xml')/site/closed_auctions/closed_auction \
                   where $p/@id = $t/buyer/@person \
                   return let $n := for $t2 in doc('auction.xml')/site/regions/europe/item \
                                    where $t/itemref/@item = $t2/@id {extra} return $t2 \
                          return <item>{{ $n/name/text() }}</item> \
         return <person name='{{ $p/name/text() }}'>{{ $a }}</person>"
    )
}

/// Correlated joins: the shapes where the physical join is picked from the
/// inner side's fields alone, a loop-invariant build is shared between
/// opens, and further equality conjuncts are probed from memoized
/// operands. Every mode must still produce the interpreter's bytes.
#[test]
fn correlated_join_corpus() {
    let mut e = Engine::new();
    e.bind_document("auction.xml", AUCTION).unwrap();
    e.bind_document("pubs.xml", PUBS).unwrap();
    let pubs = "doc('pubs.xml')/db/pub";
    let queries: Vec<String> = vec![
        q9_shape(""),
        q9_shape("and $t2/kind = $t/want"),
        // The inner side depends on the partition: nothing to share.
        "for $p in doc('auction.xml')/site/people/person \
         let $a := for $t in doc('auction.xml')/site/closed_auctions/closed_auction \
                   where $p/@id = $t/buyer/@person \
                   return let $n := for $r in $t/itemref \
                                    where $r/@item = 'i2' or $r/@item = $p/@id return $r \
                          return count($n) \
         return <p>{ $a }</p>"
            .to_string(),
        // Two and three conjuncts; `author` is multi-valued or missing,
        // one `year` is empty (Clio N3's predicate shape).
        format!(
            "for $p in {pubs}, $q in {pubs} \
             where $p/author/text() = $q/author/text() and $p/year/text() = $q/year/text() \
             return concat($p/venue, '-', $q/venue)"
        ),
        format!(
            "for $p in {pubs} return <e>{{ for $q in {pubs} \
             where $q/author = $p/author and $q/year = $p/year and $q/venue = $p/venue \
             return $q/n/text() }}</e>"
        ),
        // untypedAtomic against numbers (`abc` and `NaN` never match), a
        // string against a number, and a NaN key.
        format!(
            "for $p in {pubs}, $k in (2000, 2001) \
             where $p/year = $k and $p/n = $k - 1999 return $p/venue/text()"
        ),
        "for $s in ('1','2'), $k in (1,2) where string($k) = $s and $s = $k return $s".to_string(),
        "for $x in (number('NaN'), 1, 2), $y in (number('NaN'), 2) \
         where $x = $y and $x + 0 = $y return $x"
            .to_string(),
        // An operand that reads both sides through a nested FLWOR is no
        // join key, whatever fields it names itself.
        "for $a in (1,2,3), $b in (1,2,3) \
         where $a = ($b, for $z in (0) return $z + $a) return $a * 10 + $b"
            .to_string(),
        // An inner side that constructs nodes — inline or through a user
        // function — makes new ones per open: a kept build would hand the
        // first open's nodes to the second (`count($r | $r)` 4 -> 2, `is`
        // false -> true).
        "let $r := (for $k in (1,2) return \
           (for $x in (1,2), $y in (<a>1</a>,<a>2</a>) where $x = $y return $y)) \
         return (count($r), count($r | $r))"
            .to_string(),
        "declare function local:mk() { (<a>1</a>,<a>2</a>) }; \
         let $r := (for $k in (1,2) return \
           (for $x in (1,2), $y in local:mk() where $x = $y return $y)) \
         return ($r[1] is $r[3], count($r | $r))"
            .to_string(),
        // A join inside a function, its inner side reading the parameter:
        // a build kept from one call must never serve another. Every call,
        // recursive or sequential, runs the one function body (keying a
        // kept build by its address alone answers the last `local:g(1)`
        // with `local:g(3)`'s table).
        "declare function local:g($n as xs:integer) as xs:integer* { \
           for $x in (1,2,3) \
           let $m := (for $y in (1 to $n) where $y = $x return $y) return count($m) }; \
         for $i in (3,1,2,3,1) return local:g($i)"
            .to_string(),
        "declare function local:f($n as xs:integer) as xs:integer* { \
           if ($n = 0) then () else ( \
             (for $x in (1,2,3) \
              let $m := (for $y in (1 to $n) where $y = $x return $y) return count($m)), \
             local:f($n - 1)) }; \
         (local:f(3), local:f(1), local:f(2))"
            .to_string(),
    ];
    for q in &queries {
        assert_agrees_with_oracle(&e, q, "correlated join corpus");
    }

    // Untyped content meets durations, Gregorian and binary values only by
    // casting (Table 2), which no key enumeration anticipates: an untyped
    // outer value is cast to the types the index holds, and a typed outer
    // value meets an index of untyped ones row by row.
    let typed = [
        ("xs:duration(\"P1D\"), xs:gYear(\"2001\")", "P1D 2001"),
        ("xs:duration(\"PT24H\"), xs:gYear(\"2001\")", "P1D 2001"),
        (
            "xs:hexBinary(\"2001\"), xs:gMonthDay(\"--12-25\")",
            "2001 --12-25",
        ),
    ];
    let untyped = "<a>P1D</a>, <a>2001</a>, <a>--12-25</a>, <a>x</a>";
    for (values, want) in typed {
        for (outer, inner) in [(values, untyped), (untyped, values)] {
            let q = format!(
                "for $x in ({outer}), $y in ({inner}) where $x = $y \
                 return string(if ($x instance of element()) then $x else $y)"
            );
            for mode in ALGEBRA_MODES.into_iter().chain([ORACLE]) {
                let got = outcome(&e, &q, &CompileOptions::mode(mode));
                assert_eq!(got.as_deref(), Ok(want), "{mode:?}: {q}");
            }
        }
    }

    // A later conjunct joins the index key only when its operands cannot
    // raise: the interpreter's `and` never casts "xyz" (its length is not
    // 1), so no mode may.
    let guarded = "for $p in (1,2), $q in (\"1\",\"xyz\") \
                   where string-length($q) = $p and xs:integer($q) = $p return $p";
    for mode in ALGEBRA_MODES.into_iter().chain([ORACLE]) {
        assert_eq!(
            outcome(&e, guarded, &CompileOptions::mode(mode)),
            Ok("1".to_string()),
            "{mode:?}"
        );
    }

    // Composite keys: every component a text or attribute step chain after
    // the first (whatever its operands), over multi-valued, empty, NaN and
    // signed-zero values, untyped against a double in the first. Every
    // mode, also under a strict byte budget (no spilling, so no kept
    // build), must produce the interpreter's bytes.
    e.bind_document("keys.xml", KEYS).unwrap();
    let k = "doc('keys.xml')/keys/k";
    let composite = [
        format!(
            "for $p in {k}, $q in {k} where number($p/@a) = $q/v/text() and $p/@b = $q/@b \
             return concat($p/@id, '-', $q/@id)"
        ),
        format!(
            "for $p in {k}, $q in {k} \
             where $p/@b = $q/@b and $p/w/text() = $q/w/text() and $q/v/text() = $p/v/text() \
             return concat($p/@id, '-', $q/@id)"
        ),
        format!(
            "for $p in {k} return <e>{{ for $q in {k} \
             where $q/w/text() = $p/w/text() and $q/@b = $p/@b return string($q/@id) }}</e>"
        ),
        format!(
            "for $p in {k}, $q in {k} \
             where $p/w/text() = $q/w/text() and $p/@id != $q/@id and $p/@b = $q/@b \
             return concat($p/@id, '-', $q/@id)"
        ),
        format!(
            "for $p in {pubs}, $q in {pubs} \
             where $p/author/text() = $q/author/text() and $p/year/text() = $q/year/text() \
               and $p/n/text() = $q/n/text() \
             return concat($p/venue, '-', $q/venue)"
        ),
    ];
    let strict = Limits::none()
        .with_max_bytes(1 << 20)
        .with_spill(None)
        .with_deadline(Duration::from_secs(10));
    for q in &composite {
        assert_agrees_with_oracle(&e, q, "composite join keys");
        let expected = outcome(&e, q, &CompileOptions::mode(ORACLE));
        for mode in ALGEBRA_MODES {
            let got = outcome(&e, q, &CompileOptions::mode(mode).limits(strict.clone()));
            assert_eq!(got, expected, "{mode:?} under a strict budget\nquery: {q}");
        }
        let text = e
            .prepare(q, &CompileOptions::mode(ExecutionMode::OptimHashJoin))
            .unwrap()
            .explain();
        assert!(text.contains(") and "), "one composite key: {text}");
    }

    // The corpus is only worth its name while Q9's shape takes the path it
    // is named for: one build, many opens, and an explain() that says so.
    // (`$t2/kind` atomizes an element, so that conjunct stays a residual.)
    let opts = CompileOptions::mode(ExecutionMode::OptimHashJoin).with_profiling();
    let p = e
        .prepare(&q9_shape("and $t2/kind = $t/want"), &opts)
        .unwrap();
    let text = p.explain();
    assert!(
        text.contains("TreeJoin[attribute::id](IN#")
            && text.contains("; residual: 1; inner side: once per run"),
        "{text}"
    );
    p.run(&e).unwrap();
    let text = p.explain_analyze();
    assert!(text.contains("opens=4 builds=1"), "{text}");
}

/// A query on which XQuery's error-order freedom makes some algebra modes
/// legitimately differ from the interpreter. Both sides are pinned, so a
/// change in either is seen; modes not listed must match the oracle.
struct ErrorOrderFreedom {
    query: &'static str,
    reason: &'static str,
    oracle: Result<&'static str, &'static str>,
    differs: &'static [(ExecutionMode, Result<&'static str, &'static str>)],
}

const BUILD_SIDE_RAISES: &[(ExecutionMode, Result<&str, &str>)] = &[
    (ExecutionMode::OptimNestedLoop, Err("FOAR0001")),
    (ExecutionMode::OptimHashJoin, Err("FOAR0001")),
    (ExecutionMode::OptimSortJoin, Err("FOAR0001")),
];

const ERROR_ORDER_FREEDOM: &[ErrorOrderFreedom] = &[
    ErrorOrderFreedom {
        query: "for $x in (), $y in (1 idiv 0) return $x",
        reason: "the interpreter never evaluates the second generator over an empty first one; \
                 (insert product) makes the independent generators a Join whose build side is \
                 evaluated when the cursor opens",
        oracle: Ok(""),
        differs: BUILD_SIDE_RAISES,
    },
    ErrorOrderFreedom {
        query: "for $x in (1,2) let $m := (for $y in (), $z in (1 idiv 0) return $z) \
                return count($m)",
        reason: "the same Join in a per-tuple dependent plan: its build side is evaluated by \
                 the first open (a build shared between opens is evaluated by no later one, \
                 so sharing cannot add an error, only not repeat one)",
        oracle: Ok("0 0"),
        differs: BUILD_SIDE_RAISES,
    },
];

#[test]
fn error_order_freedom_is_pinned() {
    let e = Engine::new();
    let own = |r: &Result<&str, &str>| r.map(str::to_string).map_err(str::to_string);
    for f in ERROR_ORDER_FREEDOM {
        let (q, reason) = (f.query, f.reason);
        assert_eq!(
            outcome(&e, q, &CompileOptions::mode(ORACLE)),
            own(&f.oracle),
            "oracle: {q} ({reason})"
        );
        for mode in ALGEBRA_MODES {
            let expected = f.differs.iter().find(|(m, _)| *m == mode);
            assert_eq!(
                outcome(&e, q, &CompileOptions::mode(mode)),
                own(expected.map_or(&f.oracle, |(_, r)| r)),
                "{mode:?}: {q} ({reason})"
            );
        }
    }
}

/// Budget charging is per tuple, so a governed run trips (or does not)
/// with the same code in every algebra mode; a run under a roomy budget
/// returns the oracle's result.
#[test]
fn governed_budgets_agree() {
    let e = Engine::new();
    let over = "count(for $x in 1 to 200, $y in 1 to 200 where $x * 2 >= $y return 1)";
    let tight = Limits::none().with_max_tuples(500);
    for mode in ALGEBRA_MODES.into_iter().chain([ORACLE]) {
        assert_eq!(
            outcome(&e, over, &CompileOptions::mode(mode).limits(tight.clone())),
            Err("XQRG0003".to_string()),
            "{mode:?}"
        );
    }
    let under = "count(for $x in 1 to 50, $y in 1 to 50 where $x >= $y return 1)";
    let roomy = Limits::none()
        .with_max_tuples(1_000_000)
        .with_deadline(Duration::from_secs(30));
    let expected = outcome(&e, under, &CompileOptions::mode(ORACLE));
    for mode in ALGEBRA_MODES {
        assert_eq!(
            outcome(&e, under, &CompileOptions::mode(mode).limits(roomy.clone())),
            expected,
            "{mode:?}"
        );
    }
}

/// Constructors written into their parent's builder: node identity and
/// order through nested constructors, text merging across content parts,
/// dynamic names, nested attribute/text/comment/PI constructors, and
/// errors raised inside nested content (the same code, and the first
/// error, as the interpreter's finish-then-copy). Every mode, the oracle
/// included, runs under one strict budget, and the results must agree.
#[test]
fn constructor_corpus() {
    let mut e = Engine::new();
    e.bind_document("bib.xml", BIB).unwrap();
    let strict = Limits::none()
        .with_max_tuples(20_000)
        .with_max_bytes(16 << 20)
        .with_deadline(Duration::from_secs(10));
    let cases: &[(&str, Result<&str, &str>)] = &[
        // Identity and order through nested constructors.
        (
            "let $e := <a><b/><c/></a> \
             return ($e/b is $e/b, $e/b << $e/c, $e/b/.. is $e, count($e/* | $e/*))",
            Ok("true true true 2"),
        ),
        (
            "let $b := <b/> let $a := <a>{$b}</a> return ($a/b is $b, count(($a/b, $b) | $b))",
            Ok("false 2"),
        ),
        ("name((<a><b><c/></b></a>)/b/c/../..)", Ok("a")),
        (
            "let $t := text {'x'} return (count($t/..), <a>{$t}</a>)",
            Ok("0<a>x</a>"),
        ),
        // Text merging across parts.
        ("<a>{1}<b/>{2, 3}</a>", Ok("<a>1<b/>2 3</a>")),
        ("<a>x{1}<b>{2}</b>y</a>", Ok("<a>x1<b>2</b>y</a>")),
        ("<a>{1}{2}</a>", Ok("<a>1 2</a>")),
        (
            "<a>{1}{text {''}}{2}{text {'t'}}{3}</a>",
            Ok("<a>1 2t3</a>"),
        ),
        ("<a>{<b>x</b>/text()}y{<c/>}</a>", Ok("<a>xy<c/></a>")),
        ("<a>{document {<b/>, 't'}}{1}</a>", Ok("<a><b/>t1</a>")),
        // A document's content follows the same rules (§3.7.3.3).
        ("document{1, 2}", Ok("1 2")),
        ("document{1, <a/>, 2}", Ok("1<a/>2")),
        ("document{(1, 2), 3}", Ok("1 2 3")),
        (
            "<r>{for $i in (1, 2) return <i n='{$i}'>{$i, <j/>, $i}</i>}</r>",
            Ok("<r><i n=\"1\">1<j/>1</i><i n=\"2\">2<j/>2</i></r>"),
        ),
        // Dynamic names, nested attribute, comment and PI constructors.
        (
            "<a>{element {concat('d', 'yn')} {attribute k {1, 2}, <m/>, 3}}</a>",
            Ok("<a><dyn k=\"1 2\"><m/>3</dyn></a>"),
        ),
        (
            "<a>{attribute x {'v'}}<b>{attribute y {1}}</b>{comment {'c'}}\
             {processing-instruction p {'d'}}</a>",
            Ok("<a x=\"v\"><b y=\"1\"/><!--c--><?p d?></a>"),
        ),
        ("<a>{''}{attribute x {1}}</a>", Ok("<a x=\"1\"/>")),
        // Errors inside nested content: same code, same first error.
        ("<a><b>{1 idiv 0}</b></a>", Err("FOAR0001")),
        ("<a><b>{exactly-one(())}</b>{1 idiv 0}</a>", Err("FORG0005")),
        ("<a>{element {()} {1 idiv 0}}</a>", Err("XPTY0004")),
        (
            "<a><b>{element {()} {1}}</b>{1 idiv 0}</a>",
            Err("XPTY0004"),
        ),
        // An attribute after other content is XQTY0024 (XQuery 1.0
        // §3.7.1.3), raised after the element's content is evaluated.
        ("<a><b/>{attribute x {1}}</a>", Err("XQTY0024")),
        ("<a>x{attribute x {1}}</a>", Err("XQTY0024")),
        ("<a>{1}{attribute x {1}}</a>", Err("XQTY0024")),
        (
            "let $t := attribute x {1} return <a><b/>{$t}</a>",
            Err("XQTY0024"),
        ),
        (
            "<a><b><c/>{attribute x {1}}</b>{1 idiv 0}</a>",
            Err("XQTY0024"),
        ),
        ("<a><b/>{attribute x {1}}{1 idiv 0}</a>", Err("FOAR0001")),
        // Constructors over a document.
        (
            "<t>{for $b in doc('bib.xml')/bib/book[@year < 2000] \
             return <b y='{$b/@year}'>{$b/title/text()}</b>}</t>",
            Ok("<t><b y=\"1994\">TCP/IP Illustrated</b>\
                <b y=\"1999\">The Economics of Technology</b></t>"),
        ),
    ];
    for (q, want) in cases {
        let want = want.map(str::to_string).map_err(str::to_string);
        for mode in ALGEBRA_MODES.into_iter().chain([ORACLE]) {
            let got = outcome(&e, q, &CompileOptions::mode(mode).limits(strict.clone()));
            assert_eq!(got, want, "{mode:?}: {q}");
        }
    }
}

// ===== randomized properties ================================================

fn int_list(vs: &[i64]) -> String {
    vs.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// A small total-FLWOR generator: integer data, comparison/arithmetic
/// predicates that cannot raise (no division), optional second generator
/// variable (exercising joins/products), optional order-by (a breaker).
fn flwor_query() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(0i64..8, 1..6),
        prop::collection::vec(0i64..8, 1..6),
        0i64..8,
        0usize..4,
    )
        .prop_map(|(xs, ys, k, shape)| {
            let (xs, ys) = (int_list(&xs), int_list(&ys));
            match shape {
                0 => format!("for $x in ({xs}) where $x >= {k} return $x * 2"),
                1 => format!("for $x in ({xs}), $y in ({ys}) where $x = $y return $x + 10 * $y"),
                2 => format!(
                    "for $x in ({xs}) let $m := (for $y in ({ys}) where $y = $x return $y) \
                     return ($x, count($m))"
                ),
                _ => format!(
                    "for $x at $i in ({xs}) where $x > {k} order by $x, $i descending \
                     return ($i, $x)"
                ),
            }
        })
}

/// Comparison-heavy FLWOR generator: integer and decimal data so batches
/// land in the typed lanes and mixed data forces fallback; all six
/// operators; fused const-arithmetic operand chains.
fn comparison_flwor() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(0i64..8, 1..6),
        prop::collection::vec(0i64..8, 1..6),
        0i64..8,
        0usize..6,
        0usize..4,
    )
        .prop_map(|(xs, ys, k, op_idx, shape)| {
            let op = ["=", "!=", "<", "<=", ">", ">="][op_idx];
            let (xs, ys) = (int_list(&xs), int_list(&ys));
            match shape {
                // Select kernel: single generator, const on one side.
                0 => format!("for $x in ({xs}) where $x * 2 {op} {k} return $x"),
                // Join kernel: comparison split across generators.
                1 => format!("for $x in ({xs}), $y in ({ys}) where $x {op} $y return $x + 10 * $y"),
                // Fused arithmetic on the inner operand (the Q11 shape).
                2 => format!("for $x in ({xs}), $y in ({ys}) where $x {op} 2 * $y return ($x, $y)"),
                // Mixed double/integer promotion in the predicate.
                _ => format!("for $x in ({xs}) where ($x * 0.5) {op} {k} return $x"),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_flwor_agrees_with_oracle(q in flwor_query()) {
        let e = Engine::new();
        let expected = outcome(&e, &q, &CompileOptions::mode(ORACLE));
        for mode in ALGEBRA_MODES {
            let got = outcome(&e, &q, &CompileOptions::mode(mode));
            prop_assert_eq!(&got, &expected, "mode {:?} query {}", mode, q);
        }
    }

    #[test]
    fn random_comparisons_agree_with_oracle(q in comparison_flwor()) {
        let e = Engine::new();
        let expected = outcome(&e, &q, &CompileOptions::mode(ORACLE));
        for mode in ALGEBRA_MODES {
            let got = outcome(&e, &q, &CompileOptions::mode(mode));
            prop_assert_eq!(&got, &expected, "mode {:?} query {}", mode, q);
        }
    }
}
