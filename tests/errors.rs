//! Error behavior: static and dynamic errors are raised with stable codes,
//! consistently across execution modes (completeness includes failing
//! correctly).

use xqr::engine::{CompileOptions, Engine, EngineError, ExecutionMode};

fn error_code(engine: &Engine, q: &str, mode: ExecutionMode) -> Option<String> {
    fn classify(e: EngineError) -> String {
        match e {
            EngineError::Syntax(_) => "XPST0003".into(),
            EngineError::Dynamic(e) => e.code.to_string(),
            EngineError::LimitExceeded { code, .. } => code.to_string(),
            EngineError::Internal { .. } => "INTERNAL".into(),
        }
    }
    match engine.prepare(q, &CompileOptions::mode(mode)) {
        Err(e) => Some(classify(e)),
        Ok(p) => p.run(engine).err().map(classify),
    }
}

/// Asserts every mode raises an error with the given code.
fn check_error(q: &str, code: &str) {
    let e = Engine::new();
    for mode in ExecutionMode::ALL {
        assert_eq!(
            error_code(&e, q, mode).as_deref(),
            Some(code),
            "{mode:?}: {q}"
        );
    }
}

#[test]
fn syntax_errors() {
    let e = Engine::new();
    for q in [
        "for $x in",
        "1 +",
        "<a><b></a></b>",
        "let $x 1 return $x",
        "typeswitch (1) default return",
        "some $x satisfies 1",
        "'unterminated",
        "(: unclosed comment",
    ] {
        assert!(
            matches!(
                e.prepare(q, &CompileOptions::default()),
                Err(EngineError::Syntax(_))
            ),
            "{q:?} should be a syntax error"
        );
    }
}

#[test]
fn unbound_variable() {
    check_error("$nowhere", "XPDY0002");
    check_error("declare variable $x external; $x", "XPDY0002");
}

#[test]
fn unknown_function() {
    check_error("no-such-function(1)", "XPST0017");
    check_error("local:ghost()", "XPST0017");
}

#[test]
fn cardinality_violations() {
    check_error("exactly-one(())", "FORG0005");
    check_error("exactly-one((1, 2))", "FORG0005");
    check_error("one-or-more(())", "FORG0004");
    check_error("zero-or-one((1, 2))", "FORG0003");
}

#[test]
fn arithmetic_errors() {
    check_error("1 div 0", "FOAR0001");
    check_error("1 idiv 0", "FOAR0001");
    check_error("1 mod 0", "FOAR0001");
    check_error("'x' + 1", "XPTY0004");
}

#[test]
fn cast_errors() {
    check_error("'abc' cast as xs:integer", "FORG0001");
    check_error("() cast as xs:integer", "XPTY0004");
    check_error("'2001-13-01' cast as xs:date", "FORG0001");
    // A multi-byte character where a timezone would start is no timezone.
    check_error("xs:date('€abcde')", "FORG0001");
    check_error("xs:time('x€abcde')", "FORG0001");
    // XML Schema's double lexical space, not Rust's: `INF`, `-INF` and
    // `NaN` are the only words.
    for q in [
        "xs:double('inf')",
        "xs:double('Infinity')",
        "xs:double('-infinity')",
        "xs:double('nan')",
        "xs:float('inf')",
        "'INFINITY' cast as xs:double",
    ] {
        check_error(q, "FORG0001");
    }
}

#[test]
fn zero_argument_builtins_need_a_context_item() {
    for f in [
        "name",
        "local-name",
        "namespace-uri",
        "string",
        "number",
        "string-length",
        "normalize-space",
        "root",
    ] {
        check_error(&format!("{f}()"), "XPDY0002");
    }
}

#[test]
fn type_assertion_errors() {
    check_error("('a', 'b') treat as xs:string", "XPDY0050");
    check_error("for $x as xs:integer in ('a') return $x", "XPDY0050");
    check_error("let $x as xs:string := 5 return $x", "XPDY0050");
}

#[test]
fn ebv_errors() {
    check_error("if ((1, 2)) then 1 else 2", "FORG0006");
    check_error("not((1, 2))", "FORG0006");
}

#[test]
fn path_type_errors() {
    check_error("(1)/a", "XPTY0020");
    check_error("('x')//b", "XPTY0020");
}

#[test]
fn missing_document() {
    check_error("doc('nope.xml')", "FODC0002");
}

#[test]
fn value_comparison_stays_strict() {
    // Deviation boundary check: general comparisons tolerate incomparable
    // pairs (non-match), value comparisons do not.
    check_error("1 eq 'x'", "XPTY0004");
    let e = Engine::new();
    for mode in ExecutionMode::ALL {
        assert_eq!(error_code(&e, "1 = 'x'", mode), None, "{mode:?}");
    }
}

#[test]
fn recursion_guard() {
    // Debug-build native frames are large; give the evaluator headroom to
    // reach its own logical-depth limit before the OS stack runs out.
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(|| {
            check_error(
                "declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)",
                "XQRT0005",
            );
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn conditional_lets_are_not_lifted() {
    // Regression (code review): constant lifting must not hoist a `let`
    // out of a conditional branch — doc('missing.xml') would be resolved
    // even though the branch is never taken.
    let e = Engine::new();
    let q = "if (false()) then (let $d := doc('missing.xml') return $d) else 0";
    for mode in ExecutionMode::ALL {
        assert_eq!(error_code(&e, q, mode), None, "{mode:?}");
    }
}

#[test]
fn pathological_nesting_errors_cleanly() {
    // Regression: deeply nested inputs must produce errors, not stack
    // overflows. (Big-stack thread: debug-build frames are large, and the
    // guards are sized for the 8 MB main-thread stack.)
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(|| {
            let deep_query = format!("{}1{}", "(".repeat(20_000), ")".repeat(20_000));
            assert!(xqr::frontend::parse_query(&deep_query).is_err());
            let deep_ctor = format!("{}1{}", "<a>".repeat(5_000), "</a>".repeat(5_000));
            assert!(xqr::frontend::parse_query(&deep_ctor).is_err());
            let deep_xml = format!("{}x{}", "<a>".repeat(50_000), "</a>".repeat(50_000));
            assert!(
                xqr::xml::parse_document(&deep_xml, &xqr::xml::ParseOptions::default()).is_err()
            );
        })
        .unwrap()
        .join()
        .unwrap();
}
