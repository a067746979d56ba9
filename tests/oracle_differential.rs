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

/// A query on which XQuery's error-order freedom makes some algebra modes
/// legitimately differ from the interpreter. Both sides are pinned, so a
/// change in either is seen; modes not listed must match the oracle.
struct ErrorOrderFreedom {
    query: &'static str,
    reason: &'static str,
    oracle: Result<&'static str, &'static str>,
    differs: &'static [(ExecutionMode, Result<&'static str, &'static str>)],
}

const ERROR_ORDER_FREEDOM: &[ErrorOrderFreedom] = &[ErrorOrderFreedom {
    query: "for $x in (), $y in (1 idiv 0) return $x",
    reason: "the interpreter never evaluates the second generator over an empty first one; \
             (insert product) makes the independent generators a Join whose build side is \
             evaluated when the cursor opens",
    oracle: Ok(""),
    differs: &[
        (ExecutionMode::OptimNestedLoop, Err("FOAR0001")),
        (ExecutionMode::OptimHashJoin, Err("FOAR0001")),
        (ExecutionMode::OptimSortJoin, Err("FOAR0001")),
    ],
}];

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
