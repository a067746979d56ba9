//! Breadth tests over the expression language: every construct the
//! compiler claims to cover, checked for agreement across all execution
//! modes (completeness is the paper's first requirement).

use xqr::engine::{CompileOptions, Engine, ExecutionMode};
use xqr::xml::Sequence;

fn check(q: &str, expected: &str) {
    check_with(Engine::new(), q, expected)
}

fn check_with(engine: Engine, q: &str, expected: &str) {
    for mode in ExecutionMode::ALL {
        let out = engine
            .prepare(q, &CompileOptions::mode(mode))
            .unwrap_or_else(|err| panic!("{mode:?} prepare {q:?}: {err}"))
            .run_to_string(&engine)
            .unwrap_or_else(|err| panic!("{mode:?} run {q:?}: {err}"));
        assert_eq!(out, expected, "{mode:?}: {q}");
    }
}

#[test]
fn sequences_and_ranges() {
    check("()", "");
    check("(1, (2, 3), ())", "1 2 3");
    check("1 to 4", "1 2 3 4");
    check("reverse(1 to 3)", "3 2 1");
    check("(5 to 4)", "");
    check("count((1 to 100)[. mod 7 = 0])", "14");
}

#[test]
fn arithmetic_corners() {
    check("-3 + 1", "-2");
    check("- -3", "3");
    check("2 + 3.5", "5.5");
    check("10 div 4", "2.5");
    check("10 idiv 4", "2");
    check("10 mod 4", "2");
    check("1.5 * 2", "3");
    check("1e1 * 2", "20");
    check("() + 1", "");
}

#[test]
fn comparison_corners() {
    check("1 = 1.0", "true");
    check("'abc' < 'abd'", "true");
    check("(1, 2) = (2, 3)", "true");
    check("() = ()", "false");
    check("(1, 2) != (1, 2)", "true"); // existential over distinct pairs
    check("1 eq 1", "true");
    check("'a' eq 'a'", "true");
    // Untyped content compares as xs:double only in its lexical space.
    check("<a>INF</a> = 1 div 0e0", "true");
    check("<a>infinity</a> = 1 div 0e0", "false");
    check("<a>-inf</a> = -1 div 0e0", "false");
}

#[test]
fn logic_and_ebv() {
    check("1 and 'x'", "true");
    check("0 or ''", "false");
    check("not(())", "true");
    check("boolean((<a/>))", "true");
    check("if ('') then 1 else 2", "2");
}

#[test]
fn flwor_shapes() {
    check(
        "for $x in (1, 2), $y in ($x, $x * 10) return $y",
        "1 10 2 20",
    );
    check(
        "for $x at $i in ('a', 'b', 'c') where $i mod 2 = 1 return $x",
        "a c",
    );
    check("let $x := 1, $y := $x + 1 return $y", "2");
    check(
        "for $x in (3, 1, 2) let $y := $x * 2 order by $y return $y",
        "2 4 6",
    );
    // Multi-key ordering, mixed directions.
    check(
        "for $p in ((1,9), (1,3), (0,5)) return () , \
         (for $x in (3, 1, 3, 2) order by $x descending, $x ascending return $x)",
        "3 3 2 1",
    );
    // where before let (clause order preserved).
    check(
        "for $x in (1, 2, 3) where $x > 1 \
         let $y := $x * $x where $y < 9 return $y",
        "4",
    );
}

#[test]
fn order_by_empty_handling() {
    // `for` flattens: () contributes no binding — bind via let instead.
    check(
        "for $p in (1, 2, 3) \
         let $k := (()[$p = 1], 5[$p = 2], 3[$p = 3]) \
         order by $k return string(count($k))",
        "0 1 1",
    );
    check(
        "for $p in (1, 2, 3) \
         let $k := (()[$p = 1], 5[$p = 2], 3[$p = 3]) \
         order by $k empty greatest return ($p, ':')",
        "3 : 2 : 1 :",
    );
}

#[test]
fn nested_quantifiers() {
    check(
        "some $x in (1, 2, 3) satisfies every $y in (1, 2) satisfies $x >= $y * $y - 1",
        "true",
    );
    check("every $x in () satisfies false()", "true");
    check("some $x in () satisfies true()", "false");
}

#[test]
fn recursion_and_functions() {
    check(
        "declare function local:fib($n as xs:integer) as xs:integer \
         { if ($n < 2) then $n else local:fib($n - 1) + local:fib($n - 2) }; \
         local:fib(12)",
        "144",
    );
    check(
        "declare function local:rev($s) \
         { if (empty($s)) then () else (local:rev(subsequence($s, 2)), $s[1]) }; \
         local:rev((1, 2, 3, 4))",
        "4 3 2 1",
    );
    // Mutual recursion.
    check(
        "declare function local:even($n as xs:integer) as xs:boolean \
         { if ($n = 0) then true() else local:odd($n - 1) }; \
         declare function local:odd($n as xs:integer) as xs:boolean \
         { if ($n = 0) then false() else local:even($n - 1) }; \
         local:even(10)",
        "true",
    );
}

#[test]
fn constructors_nested() {
    check(
        "<a>{ for $i in 1 to 3 return <b n=\"{$i}\">{$i * $i}</b> }</a>",
        "<a><b n=\"1\">1</b><b n=\"2\">4</b><b n=\"3\">9</b></a>",
    );
    check("<a>{ 1, 2 }{ 3 }</a>", "<a>1 2 3</a>"); // content seq concatenated, then spaced
    check("<a b=\"x{1+1}y\"/>", "<a b=\"x2y\"/>");
    check("comment { 'note' }", "<!--note-->");
    check("processing-instruction tgt { 'data' }", "<?tgt data?>");
    check("document { <r><c/></r> }/r/c instance of element()", "true");
}

#[test]
fn node_set_operators() {
    let mut e = Engine::new();
    e.bind_document("d.xml", "<r><a/><b/><c/></r>").unwrap();
    check_with(
        e,
        "let $r := doc('d.xml')/r \
         return (count($r/a | $r/b), count(($r/a, $r/b) intersect $r/a), \
                 count($r/* except $r/b))",
        "2 1 2",
    );
}

#[test]
fn zero_argument_builtins_take_the_context_item() {
    let mut e = Engine::new();
    e.bind_document("ns.xml", "<a xmlns='urn:u'><b>  x   y </b><c>12</c></a>")
        .unwrap();
    check_with(
        e,
        "let $a := doc('ns.xml')/* \
         return ($a/*/name(), $a/*/local-name(), $a/*[1]/namespace-uri(), \
                 $a/*/string(), $a/*[2]/number(), $a/*/string-length(), \
                 $a/*[1]/normalize-space(), $a/*[1]/root() is root($a))",
        "b c b c urn:u   x   y  12 12 8 2 x y true",
    );
    check("(<a><b/></a>)/b/name()", "b");
    check("(<a>x</a>)/string()", "x");
    check("('ab', 'c')[string-length() = 1]", "c");
    check("(<a><b/></a>)/b/root()/local-name()", "a");
}

#[test]
fn type_operators() {
    check("5 instance of xs:integer", "true");
    check("5 instance of xs:decimal", "true"); // derivation
    check("5.0 instance of xs:integer", "false");
    check("(1, 2) instance of xs:integer+", "true");
    check("() instance of empty-sequence()", "true");
    check("'5' cast as xs:integer", "5");
    check("5 castable as xs:date", "false");
    check("'2001-01-01' castable as xs:date", "true");
    check("(3.7 treat as xs:decimal) + 1", "4.7");
}

#[test]
fn typeswitch_defaults() {
    check(
        "typeswitch (<e/>) case xs:integer return 'int' \
         case element() return 'elem' default return 'other'",
        "elem",
    );
    check(
        "typeswitch ((1, 2)) case xs:integer return 'one' \
         case xs:integer+ return 'many' default return 'other'",
        "many",
    );
}

#[test]
fn string_functions_via_modes() {
    check("upper-case('mIxEd')", "MIXED");
    check("concat('a', 1, 'b', ())", "a1b");
    check(
        "string-join(for $i in 1 to 3 return string($i), '-')",
        "1-2-3",
    );
    check("substring('hello world', 7)", "world");
    check("normalize-space('  a  b  ')", "a b");
    check("translate('bare', 'ae', 'or')", "borr"); // a→o, e→r
}

#[test]
fn positional_tricks() {
    check("(11 to 20)[last()]", "20");
    check("(11 to 20)[last() - 1]", "19");
    check("(11 to 20)[position() > 8]", "19 20");
    check("(11 to 20)[. > 18]", "19 20");
    check("((11 to 20)[2])[1]", "12");
}

#[test]
fn path_over_constructed_tree() {
    check(
        "count(<r>{ for $i in 1 to 4 return <x v=\"{$i}\"/> }</r>/x[@v >= 3])",
        "2",
    );
    // Predicates apply per context node: each <a> has a first <b>; the
    // two text nodes serialize adjacently (no space between nodes).
    check("<r><a><b>1</b></a><a><b>2</b></a></r>//b[1]/text()", "12");
}

#[test]
fn variables_shadowing() {
    check(
        "for $x in (1, 2) return (for $x in (10) return $x + 1)",
        "11 11",
    );
    check("let $x := 1 return (let $x := $x + 1 return $x)", "2");
}

#[test]
fn external_sequences() {
    let mut e = Engine::new();
    e.bind_variable("nums", Sequence::integers([4, 5, 6]));
    check_with(
        e,
        "declare variable $nums external; sum($nums) * count($nums)",
        "45",
    );
}

#[test]
fn deep_nesting_stress() {
    // Four levels of correlated nesting: exercises the full unnesting
    // cascade on plain sequences.
    check(
        "for $a in (1, 2) \
         let $x := for $b in (1, 2, 3) where $b >= $a \
                   let $y := for $c in (1, 2) where $c = $b return $c \
                   return count($y) \
         return sum($x)",
        "2 1",
    );
}
