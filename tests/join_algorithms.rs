//! Physical join algorithms head-to-head: the nested-loop, hash (Fig. 6),
//! and B-tree sort joins must be interchangeable on real workloads, and the
//! hash join's type machinery must handle the Table 2 matrix end-to-end.

use xqr::engine::{CompileOptions, Engine, ExecutionMode};
use xqr_xmark::{generate, query, GenOptions};

const JOIN_MODES: [ExecutionMode; 3] = [
    ExecutionMode::OptimNestedLoop,
    ExecutionMode::OptimHashJoin,
    ExecutionMode::OptimSortJoin,
];

#[test]
fn xmark_join_queries_agree_across_algorithms() {
    let xml = generate(&GenOptions::for_bytes(100_000));
    let mut e = Engine::new();
    e.bind_document("auction.xml", &xml).unwrap();
    for qn in [8usize, 9, 10, 11, 12] {
        let mut outs = Vec::new();
        for mode in JOIN_MODES {
            outs.push(
                e.prepare(query(qn), &CompileOptions::mode(mode))
                    .unwrap()
                    .run_to_string(&e)
                    .unwrap_or_else(|err| panic!("Q{qn} {mode:?}: {err}")),
            );
        }
        assert_eq!(outs[0], outs[1], "Q{qn}: NL vs hash");
        assert_eq!(outs[1], outs[2], "Q{qn}: hash vs sort");
    }
}

fn join_counts(left: &str, right: &str) -> Vec<String> {
    let q = format!(
        "for $x in {left} \
         let $m := for $y in {right} where $y = $x return $y \
         return count($m)"
    );
    let e = Engine::new();
    JOIN_MODES
        .iter()
        .map(|m| {
            e.prepare(&q, &CompileOptions::mode(*m))
                .unwrap()
                .run_to_string(&e)
                .unwrap()
        })
        .collect()
}

#[test]
fn untyped_vs_typed_matrix() {
    // Table 2 end-to-end: numeric string content joins numerics as double,
    // strings as strings, and never across.
    for (l, r, expected) in [
        // integers vs decimals: promotion.
        ("(1, 2, 3)", "(2.0, 3.0, 9.0)", "0 1 1"),
        // doubles vs integers.
        ("(1e0, 4e0)", "(1, 2, 4)", "1 1"),
        // strings join strings.
        ("('a', 'b')", "('b', 'b', 'c')", "0 2"),
        // strings never join numbers (non-match, not error).
        ("('1', '2')", "(1, 2)", "0 0"),
        // duplicates on both sides multiply.
        ("(5, 5)", "(5, 5, 5)", "3 3"),
        // empty sides.
        ("()", "(1)", ""),
        ("(1)", "()", "0"),
    ] {
        let outs = join_counts(l, r);
        for (mode, out) in JOIN_MODES.iter().zip(&outs) {
            assert_eq!(out, expected, "{mode:?}: {l} ⋈ {r}");
        }
    }
}

#[test]
fn untyped_node_content_joins_numerically() {
    // Node content is untypedAtomic: per Table 2 it compares to numerics as
    // double — "07" matches 7 numerically but not the string "7".
    let mut e = Engine::new();
    e.bind_document("d.xml", "<r><v>07</v><v>7</v><v>x</v></r>")
        .unwrap();
    for (pred_side, expected) in [("(7)", "2"), ("('7')", "1"), ("('07')", "1")] {
        let q = format!(
            "count(for $v in doc('d.xml')//v \
             let $m := for $k in {pred_side} where $v/text() = $k return $k \
             where exists($m) return $v)"
        );
        for mode in JOIN_MODES {
            let out = e
                .prepare(&q, &CompileOptions::mode(mode))
                .unwrap()
                .run_to_string(&e)
                .unwrap();
            assert_eq!(out, expected, "{mode:?} key {pred_side}");
        }
    }
}

#[test]
fn order_preservation_under_all_algorithms() {
    // The join output must follow outer order, and per outer tuple the
    // inner sequence order (Fig. 6 stores/recovers ordinal positions).
    let q = "for $x in (3, 1, 2) \
             for $y in (10, 30, 20, 10) \
             where ($y idiv 10) = $x or ($y idiv 10) = $x \
             return ($x * 100) + $y";
    let e = Engine::new();
    let mut outs = Vec::new();
    for mode in JOIN_MODES {
        outs.push(
            e.prepare(q, &CompileOptions::mode(mode))
                .unwrap()
                .run_to_string(&e)
                .unwrap(),
        );
    }
    assert_eq!(outs[0], "330 110 110 220");
    assert_eq!(outs[0], outs[1]);
    assert_eq!(outs[1], outs[2]);
}

#[test]
fn multi_conjunct_predicates_use_residuals() {
    // One equality is hashed; the second conjunct must be applied as a
    // residual filter per candidate.
    let q = "for $x in (1, 2, 3, 4) \
             for $y in (1, 2, 3, 4) \
             where $x = $y and $y >= 3 \
             return $y";
    let e = Engine::new();
    for mode in JOIN_MODES {
        let out = e
            .prepare(q, &CompileOptions::mode(mode))
            .unwrap()
            .run_to_string(&e)
            .unwrap();
        assert_eq!(out, "3 4", "{mode:?}");
    }
}

/// A later separable equality joins the index key only when neither
/// operand can raise: text or attribute steps over a field bound per node
/// of a path. The first separable equality is the key whatever it reads.
#[test]
fn only_conjuncts_that_cannot_raise_join_the_key() {
    let mut e = Engine::new();
    e.bind_document(
        "d.xml",
        "<r><e id='1'><y>1</y></e><e id='2'><y>x</y></e></r>",
    )
    .unwrap();
    let note = |second: &str| {
        let q = format!(
            "for $p in doc('d.xml')/r/e, $q in doc('d.xml')/r/e \
             where $p/@id = $q/@id and {second} return 1"
        );
        let p = e
            .prepare(&q, &CompileOptions::mode(ExecutionMode::OptimHashJoin))
            .unwrap();
        let out = p.run_to_string(&e).unwrap();
        let plan = p.explain();
        let line = plan.lines().find(|l| l.contains("index key:"));
        let line = line.unwrap_or_else(|| panic!("no index key: {plan}"));
        (
            line.matches(") and ").count() + 1,
            line.contains("residual: 0"),
            out,
        )
    };
    assert_eq!(note("$p/y/text() = $q/y/text()"), (2, true, "1 1".into()));
    assert_eq!(note("$q/@id = $p/@id"), (2, true, "1 1".into()));
    // An element atomizes a whole subtree, a cast may raise, a string
    // function's argument is not a step chain: residuals.
    for second in [
        "$p/y = $q/y",
        "xs:integer($p/@id) = $q/@id",
        "string($p/y) = $q/y/text()",
    ] {
        assert_eq!(note(second).0, 1, "{second}");
        assert!(!note(second).1, "{second}");
    }
    // A variable's nodes are not bound per node of a path on this side.
    let q = "let $v := doc('d.xml')/r/e return \
             for $p in $v, $q in doc('d.xml')/r/e \
             where $p/@id = $q/@id and $p/y/text() = $q/y/text() return 1";
    let p = e
        .prepare(q, &CompileOptions::mode(ExecutionMode::OptimHashJoin))
        .unwrap();
    assert!(p.explain().contains("residual: 1"), "{}", p.explain());
}

#[test]
fn inequality_joins_fall_back_to_nested_loop() {
    // No hashable equality: the hash/sort modes must still compute the
    // right answer (via NL fallback).
    let q = "count(for $x in (1, 2, 3) for $y in (2, 3, 4) where $x < $y return 1)";
    let e = Engine::new();
    for mode in JOIN_MODES {
        let out = e
            .prepare(q, &CompileOptions::mode(mode))
            .unwrap()
            .run_to_string(&e)
            .unwrap();
        assert_eq!(out, "6", "{mode:?}");
    }
}

/// Q11's inequality join runs as a nested loop. A person with no income has
/// an empty outer operand, which under existential semantics matches no
/// inner row: once the inner operands are cached, the kernel skips the
/// inner rows for that person. Only the first probe, which fills the cache,
/// walks them all on the generic path (at 1 MB: 316 inner rows; before the
/// skip, the 140 persons without income added 140 × 316).
#[test]
fn empty_outer_operand_skips_the_inner_rows() {
    let xml = generate(&GenOptions::for_bytes(1_000_000));
    let mut e = Engine::new();
    e.bind_document("auction.xml", &xml).unwrap();
    let inner = e
        .prepare(
            "count(doc('auction.xml')/site/open_auctions/open_auction/initial)",
            &CompileOptions::default(),
        )
        .unwrap()
        .run_to_string(&e)
        .unwrap();
    assert_eq!(inner, "316");
    let opts = CompileOptions::mode(ExecutionMode::OptimHashJoin).with_profiling();
    let p = e.prepare(query(11), &opts).unwrap();
    let plain = e
        .prepare(
            query(11),
            &CompileOptions::mode(ExecutionMode::OptimHashJoin),
        )
        .unwrap()
        .run_to_string(&e)
        .unwrap();
    assert_eq!(xqr::xml::serialize_sequence(&p.run(&e).unwrap()), plain);
    let text = p.explain_analyze();
    let line = text
        .lines()
        .find(|l| l.contains("fused="))
        .unwrap_or_else(|| panic!("no fused join line: {text}"));
    assert!(line.contains("fallback=316"), "{line}");
}
