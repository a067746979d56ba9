//! Differential suite for the structural path kernels (DESIGN.md §4d).
//!
//! The indexed `tree_join` must agree with the naive per-node reference
//! walk (`axes::naive`, the pre-index implementation kept behind the
//! `naive-axes` feature) on every axis and node-test combination, over
//! random documents and random step chains. At the engine level, the
//! algebra (streaming `TreeJoin` cursors over fused step chains) and the
//! Core interpreter (the set-at-a-time kernel, step by step) must produce
//! identical results on random path queries, and under tight governor
//! budgets may differ only in *where* a resource limit fires — any
//! divergence must be a governor limit code on both sides (or a limit on
//! one side where the other completed within budget).

use proptest::prelude::*;
use xqr::engine::{CompileOptions, Engine, EngineError, ExecutionMode};
use xqr::xml::axes::{self, Axis, KindTest, NameTest, NodeTest};
use xqr::xml::node::TrivialHierarchy;
use xqr::xml::{parse_document, Limits, ParseOptions, Sequence};

const ALL_AXES: [Axis; 12] = [
    Axis::Child,
    Axis::Descendant,
    Axis::DescendantOrSelf,
    Axis::Attribute,
    Axis::SelfAxis,
    Axis::Parent,
    Axis::Ancestor,
    Axis::AncestorOrSelf,
    Axis::FollowingSibling,
    Axis::PrecedingSibling,
    Axis::Following,
    Axis::Preceding,
];

/// Node tests exercising every compiled-test shape: kind-only, interned
/// name (present and absent), wildcard, generic, and attribute kind tests.
fn test_pool(i: usize) -> NodeTest {
    match i {
        0 => NodeTest::Kind(KindTest::AnyKind),
        1 => NodeTest::Name(NameTest::local("a")),
        2 => NodeTest::Name(NameTest::local("b")),
        3 => NodeTest::Name(NameTest::any()),
        4 => NodeTest::Kind(KindTest::Text),
        5 => NodeTest::Kind(KindTest::Attribute(Some(NameTest::local("i")), None)),
        _ => NodeTest::Name(NameTest::local("nosuchname")),
    }
}

/// Random tree over a small tag alphabet (so name tests actually match),
/// with attributes, text, and comments mixed in.
fn arb_xml_tree() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        "[a-z]{1,6}".prop_map(|t| t),
        Just("<b/>".to_string()),
        "[a-z]{1,4}".prop_map(|v| format!("<c i=\"{v}\"/>")),
        Just("<!--note-->".to_string()),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        (prop::collection::vec(inner, 0..4), 0usize..4, 0u8..3).prop_map(
            |(children, name, nattr)| {
                let name = ["a", "b", "c", "d"][name];
                let attrs = match nattr {
                    0 => "",
                    1 => " i=\"1\"",
                    _ => " i=\"1\" j=\"2\"",
                };
                format!("<{name}{attrs}>{}</{name}>", children.join(""))
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Library level: the indexed kernels equal the naive reference after
    /// every step of a random chain (so intermediate results — which feed
    /// the next step's context set — agree too, on all 12 axes).
    #[test]
    fn indexed_equals_naive_on_random_chains(
        tree in arb_xml_tree(),
        chain in prop::collection::vec((0usize..12, 0usize..7), 1..4),
    ) {
        let doc = format!("<r>{tree}</r>");
        let parsed = parse_document(&doc, &ParseOptions::default()).unwrap();
        let mut cur = Sequence::singleton(parsed.root());
        for (ai, ti) in chain {
            let axis = ALL_AXES[ai];
            let test = test_pool(ti);
            let indexed = axes::tree_join(&cur, axis, &test, &TrivialHierarchy).unwrap();
            let naive = axes::naive::tree_join(&cur, axis, &test, &TrivialHierarchy).unwrap();
            prop_assert_eq!(
                indexed.len(),
                naive.len(),
                "axis {:?} test {:?} on {}",
                axis,
                &test,
                &doc
            );
            for (x, y) in indexed.iter().zip(naive.iter()) {
                prop_assert!(
                    x.as_node().unwrap().same_node(y.as_node().unwrap()),
                    "axis {:?} test {:?}: node mismatch on {}",
                    axis,
                    &test,
                    &doc
                );
            }
            cur = indexed;
        }
    }

    /// Library level: every single node of a random document as a lone
    /// context, all axes — catches per-context edge cases (attribute
    /// contexts, root contexts) that chained steps rarely produce.
    #[test]
    fn indexed_equals_naive_per_node(tree in arb_xml_tree(), ti in 0usize..7) {
        let doc = format!("<r>{tree}</r>");
        let parsed = parse_document(&doc, &ParseOptions::default()).unwrap();
        let root = parsed.root();
        let test = test_pool(ti);
        // All nodes including attributes, via the naive walk.
        let mut contexts = vec![root.clone()];
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            for a in n.attributes() {
                contexts.push(a);
            }
            for c in n.children() {
                contexts.push(c.clone());
                stack.push(c);
            }
        }
        for axis in ALL_AXES {
            for ctx in &contexts {
                let s = Sequence::singleton(ctx.clone());
                let indexed = axes::tree_join(&s, axis, &test, &TrivialHierarchy).unwrap();
                let naive = axes::naive::tree_join(&s, axis, &test, &TrivialHierarchy).unwrap();
                prop_assert_eq!(indexed.len(), naive.len(), "axis {:?} ctx {:?}", axis, ctx);
                for (x, y) in indexed.iter().zip(naive.iter()) {
                    prop_assert!(
                        x.as_node().unwrap().same_node(y.as_node().unwrap()),
                        "axis {:?} ctx {:?}",
                        axis,
                        ctx
                    );
                }
            }
        }
    }
}

// ===== engine level ========================================================

/// Node-test syntax valid on every axis.
const TEST_SYNTAX: [&str; 6] = ["node()", "a", "b", "*", "text()", "comment()"];

fn path_query(chain: &[(usize, usize)]) -> String {
    let mut q = String::from("doc(\"t.xml\")");
    for (ai, ti) in chain {
        q.push('/');
        q.push_str(ALL_AXES[*ai].name());
        q.push_str("::");
        q.push_str(TEST_SYNTAX[*ti]);
    }
    q
}

fn err_code(e: EngineError) -> String {
    match e {
        EngineError::Dynamic(x) => x.code.to_string(),
        EngineError::Syntax(_) => "SYNTAX".to_string(),
        EngineError::LimitExceeded { code, .. } => code.to_string(),
        EngineError::Internal { .. } => "INTERNAL".to_string(),
    }
}

fn outcome(e: &Engine, q: &str, opts: &CompileOptions) -> Result<String, String> {
    match e.prepare(q, opts) {
        Ok(p) => p.run_to_string(e).map_err(err_code),
        Err(err) => Err(err_code(err)),
    }
}

fn is_limit(code: &str) -> bool {
    xqr::xml::limits::is_limit_code(code)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine level: the algebra (streaming TreeJoin cursors) and the Core
    /// interpreter agree exactly on random path queries, both as bare
    /// paths and through the tuple pipeline (`for ... return`).
    #[test]
    fn algebra_agrees_with_oracle_on_random_paths(
        tree in arb_xml_tree(),
        chain in prop::collection::vec((0usize..12, 0usize..6), 1..4),
    ) {
        let xml = format!("<r>{tree}</r>");
        let mut e = Engine::new();
        e.bind_document("t.xml", &xml).unwrap();
        let path = path_query(&chain);
        for q in [path.clone(), format!("for $x in {path} return $x")] {
            let oracle = outcome(&e, &q, &CompileOptions::mode(ExecutionMode::NoAlgebra));
            for mode in [ExecutionMode::AlgebraNoOptim, ExecutionMode::OptimHashJoin] {
                let p = outcome(&e, &q, &CompileOptions::mode(mode));
                prop_assert_eq!(&p, &oracle, "{:?} disagrees with the oracle on {}", mode, &q);
            }
        }
    }

    /// Engine level, tight budgets: the two engines interleave governor
    /// charges differently (streaming charges as nodes flow; set-at-a-time
    /// charges per context batch), so a limit may fire at different points
    /// — but any divergence must be a governor limit, never a wrong result
    /// or a non-limit error on one side only.
    #[test]
    fn budget_classes_agree_on_random_paths(
        tree in arb_xml_tree(),
        chain in prop::collection::vec((0usize..12, 0usize..6), 1..4),
        budget in 1u64..300,
    ) {
        let xml = format!("<r>{tree}</r>");
        let mut e = Engine::new();
        e.bind_document("t.xml", &xml).unwrap();
        let q = path_query(&chain);
        let limits = Limits::none().with_max_tuples(budget);
        let p = outcome(
            &e,
            &q,
            &CompileOptions::mode(ExecutionMode::OptimHashJoin).limits(limits.clone()),
        );
        let m = outcome(
            &e,
            &q,
            &CompileOptions::mode(ExecutionMode::NoAlgebra).limits(limits),
        );
        match (&p, &m) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "within budget, results differ: {}", &q),
            (Err(a), Err(b)) => prop_assert!(
                a == b || (is_limit(a) && is_limit(b)),
                "errors disagree beyond limit class on {}: {} vs {}",
                &q,
                a,
                b
            ),
            (Ok(_), Err(x)) | (Err(x), Ok(_)) => prop_assert!(
                is_limit(x),
                "one-sided non-limit error on {}: {}",
                &q,
                x
            ),
        }
    }
}

/// The `naive-axes` escape hatch is genuinely wired up: the reference
/// module is reachable from outside the crate (this test compiles only
/// because the root crate enables the feature for its tests).
#[test]
fn naive_reference_is_exposed() {
    let parsed = parse_document("<r><a/><b/></r>", &ParseOptions::default()).unwrap();
    let out = axes::naive::tree_join(
        &Sequence::singleton(parsed.root()),
        Axis::Descendant,
        &NodeTest::Name(NameTest::any()),
        &TrivialHierarchy,
    )
    .unwrap();
    assert_eq!(out.len(), 3);
}
