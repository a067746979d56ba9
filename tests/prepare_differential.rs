//! Differential tests for the prepared-query pipeline: external-variable
//! parameters, canonical plan normalization, and the keyed plan cache.
//!
//! The central claims checked here:
//!
//! * a query prepared once and run with **bound parameters** is
//!   byte-identical to an ad-hoc compile of the same query with the
//!   parameter values **inlined as literals** — across all XMark queries,
//!   a hand-written parameterized corpus, and property-tested random
//!   inputs;
//! * a **cache hit** returns a plan that produces identical results and
//!   an identical `EXPLAIN` rendering to the cold compile it shares;
//! * the **canonical hash** is stable under variable renaming and
//!   comparison flipping — syntactic variants share one cache entry;
//! * a **tiny cache budget** evicts correctly: results stay right after
//!   eviction and re-preparation, and the entry count never exceeds the
//!   budget;
//! * under an N-worker service hammered with a fixed set of query
//!   shapes, the shared plan registry records **O(shapes)** first-sighting
//!   misses, not O(shapes × submissions).

use xqr::engine::{
    CompileOptions, Engine, ExecutionMode, PlanCacheConfig, QueryRequest, QueryService,
    ServiceConfig,
};
use xqr::xml::metrics::metrics;
use xqr::xml::Sequence;
use xqr_xmark::{generate, query, GenOptions, QUERY_COUNT};

use proptest::prelude::*;

fn xmark_engine() -> Engine {
    let xml = generate(&GenOptions::for_bytes(120_000));
    let mut e = Engine::new();
    e.bind_document("auction.xml", &xml)
        .expect("auction document parses");
    e
}

// ===== prepared (cache hit) vs ad-hoc: XMark Q1–Q20 ========================

#[test]
fn xmark_cached_prepare_is_byte_identical_to_ad_hoc() {
    let e = xmark_engine();
    let opts = CompileOptions::mode(ExecutionMode::OptimHashJoin);
    for n in 1..=QUERY_COUNT {
        let q = query(n);
        let ad_hoc = e
            .prepare(q, &opts)
            .unwrap_or_else(|err| panic!("Q{n} prepare: {err}"))
            .run_to_string(&e)
            .unwrap_or_else(|err| panic!("Q{n} run: {err}"));
        let (cold, hit0) = e.prepare_cached_outcome(q, &opts).unwrap();
        assert!(!hit0, "Q{n}: first cached prepare must miss");
        let (hot, hit1) = e.prepare_cached_outcome(q, &opts).unwrap();
        assert!(hit1, "Q{n}: second cached prepare must hit");
        assert_eq!(
            cold.explain(),
            hot.explain(),
            "Q{n}: cache hit changes the explained plan"
        );
        assert_eq!(cold.canonical_hash(), hot.canonical_hash());
        assert_eq!(
            ad_hoc,
            cold.run_to_string(&e).unwrap(),
            "Q{n}: cold cached prepare diverges from ad-hoc"
        );
        assert_eq!(
            ad_hoc,
            hot.run_to_string(&e).unwrap(),
            "Q{n}: cache hit diverges from ad-hoc"
        );
    }
    assert_eq!(e.plan_cache_len(), QUERY_COUNT);
}

// ===== bound parameters vs literal inlining ================================

/// A parameterized query template: `{}` marks where the parameter value
/// goes in the literal-inlined variant; the prepared variant declares it
/// as a typed external.
struct Template {
    /// Query with a `declare variable $p ... external;` prolog.
    prepared: &'static str,
    /// The same query with `%P%` where the literal belongs.
    inlined: &'static str,
}

const INT_TEMPLATES: [Template; 3] = [
    Template {
        prepared: "declare variable $p as xs:integer external; \
                   for $x in (1 to 20) where $x >= $p return $x * 2",
        inlined: "for $x in (1 to 20) where $x >= %P% return $x * 2",
    },
    Template {
        prepared: "declare variable $p as xs:integer external; \
                   for $x in (1,1,3,5,8) \
                   let $m := for $y in (1 to 8) where $y = $x and $y < $p return $y \
                   return count($m)",
        inlined: "for $x in (1,1,3,5,8) \
                  let $m := for $y in (1 to 8) where $y = $x and $y < %P% return $y \
                  return count($m)",
    },
    Template {
        prepared: "declare variable $p as xs:integer external; \
                   sum(for $x in (1 to 30) where $x mod $p = 0 return $x)",
        inlined: "sum(for $x in (1 to 30) where $x mod %P% = 0 return $x)",
    },
];

#[test]
fn bound_params_match_literal_inlining_across_modes() {
    let e = Engine::new();
    for t in &INT_TEMPLATES {
        for mode in ExecutionMode::ALL {
            let opts = CompileOptions::mode(mode);
            // One prepared plan, many argument sets: the whole point.
            let mut prepared = e.prepare_cached(t.prepared, &opts).unwrap();
            for v in [1i64, 2, 3, 7] {
                prepared.bind_param("p", Sequence::integers([v])).unwrap();
                let got = prepared.run_to_string(&e).unwrap();
                let inlined = t.inlined.replace("%P%", &v.to_string());
                let want = e
                    .prepare(&inlined, &opts)
                    .unwrap()
                    .run_to_string(&e)
                    .unwrap();
                assert_eq!(got, want, "{mode:?} param {v}: {}", t.prepared);
            }
        }
    }
}

#[test]
fn bound_string_param_over_xmark_document() {
    let e = xmark_engine();
    let opts = CompileOptions::mode(ExecutionMode::OptimHashJoin);
    let mut prepared = e
        .prepare_cached(
            "declare variable $id as xs:string external; \
             for $p in doc('auction.xml')/site/people/person \
             where $p/@id = $id return $p/name/text()",
            &opts,
        )
        .unwrap();
    for id in ["person0", "person1", "person42", "no-such-person"] {
        prepared
            .bind_param("id", Sequence::singleton(xqr::xml::AtomicValue::string(id)))
            .unwrap();
        let got = prepared.run_to_string(&e).unwrap();
        let want = e
            .execute_to_string(&format!(
                "for $p in doc('auction.xml')/site/people/person \
                 where $p/@id = '{id}' return $p/name/text()"
            ))
            .unwrap();
        assert_eq!(got, want, "param {id}");
    }
}

#[test]
fn external_default_matches_inlined_default() {
    let e = Engine::new();
    let with_default = "declare variable $p as xs:integer external := 4; \
                        sum(for $x in (1 to 10) where $x < $p return $x)";
    let inlined = "sum(for $x in (1 to 10) where $x < 4 return $x)";
    let mut prepared = e
        .prepare_cached(with_default, &CompileOptions::default())
        .unwrap();
    // Unbound: the declared default applies.
    assert_eq!(
        prepared.run_to_string(&e).unwrap(),
        e.execute_to_string(inlined).unwrap()
    );
    // Bound: the binding wins over the default.
    prepared.bind_param("p", Sequence::integers([8])).unwrap();
    assert_eq!(
        prepared.run_to_string(&e).unwrap(),
        e.execute_to_string("sum(for $x in (1 to 10) where $x < 8 return $x)")
            .unwrap()
    );
}

// ===== canonical hash stability ============================================

#[test]
fn canonical_hash_stable_under_renaming_and_flipping() {
    let e = Engine::new();
    let opts = CompileOptions::mode(ExecutionMode::OptimHashJoin);
    // Alpha-renaming and a flipped comparison normalize to one plan.
    let variants = [
        "for $x in (1,2,3) where $x < 2 return $x + 1",
        "for $y in (1,2,3) where $y < 2 return $y + 1",
        "for $q in (1,2,3) where 2 > $q return $q + 1",
    ];
    let hashes: Vec<_> = variants
        .iter()
        .map(|q| e.prepare(q, &opts).unwrap().canonical_hash().unwrap())
        .collect();
    assert_eq!(hashes[0], hashes[1], "renaming changes the hash");
    assert_eq!(hashes[0], hashes[2], "comparison flip changes the hash");

    // All three share one cache entry (three text keys, one plan).
    for q in variants {
        e.prepare_cached(q, &opts).unwrap();
    }
    assert_eq!(e.plan_cache_len(), 1);

    // A genuinely different query must not collide.
    let other = e
        .prepare("for $x in (1,2,3) where $x < 3 return $x + 1", &opts)
        .unwrap();
    assert_ne!(hashes[0], other.canonical_hash().unwrap());
}

#[test]
fn canonical_hash_distinguishes_literal_types() {
    // `1` and `'1'` render identically as strings; the canonical form
    // keys literals by type, so the plans must hash apart.
    let e = Engine::new();
    let opts = CompileOptions::mode(ExecutionMode::OptimHashJoin);
    let int = e.prepare("(1)", &opts).unwrap().canonical_hash().unwrap();
    let string = e.prepare("('1')", &opts).unwrap().canonical_hash().unwrap();
    assert_ne!(int, string);
}

// ===== tiny-budget eviction ================================================

#[test]
fn tiny_cache_budget_evicts_but_stays_correct() {
    let shapes: Vec<String> = (0..6)
        .map(|i| format!("{i} + sum(1 to {})", i + 2))
        .collect();
    let expected: Vec<String> = {
        let e = Engine::new();
        shapes
            .iter()
            .map(|q| e.execute_to_string(q).unwrap())
            .collect()
    };
    let mut e = Engine::new();
    e.set_plan_cache_config(PlanCacheConfig {
        max_entries: 2,
        max_bytes: 1 << 20,
    });
    let before = metrics().snapshot();
    // Three rounds over six shapes with room for two: every round evicts,
    // every answer must stay right.
    for _ in 0..3 {
        for (q, want) in shapes.iter().zip(&expected) {
            let p = e.prepare_cached(q, &CompileOptions::default()).unwrap();
            assert_eq!(&p.run_to_string(&e).unwrap(), want, "{q}");
            assert!(
                e.plan_cache_len() <= 2,
                "budget exceeded: {}",
                e.plan_cache_len()
            );
        }
    }
    let after = metrics().snapshot();
    assert!(
        after.plan_cache_evictions > before.plan_cache_evictions,
        "a 2-entry cache cycling 6 shapes must evict"
    );
    // Byte accounting survives the churn.
    assert!(e.plan_cache_bytes() > 0);
    e.clear_plan_cache();
    assert_eq!(e.plan_cache_len(), 0);
    assert_eq!(e.plan_cache_bytes(), 0);
}

// ===== service stress: misses are O(shapes) ================================

#[test]
fn service_stress_misses_are_o_shapes() {
    let shapes = [
        "for $x in (1,2,3) where $x > 1 return $x * 10",
        "sum(1 to 100)",
        "count(doc('cat.xml')//item)",
        "for $x in (3,1,2) order by $x descending return $x",
    ];
    let expected = ["20 30", "5050", "3", "3 2 1"];
    let svc = QueryService::new(ServiceConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServiceConfig::default()
    });
    svc.bind_document("cat.xml", "<items><item/><item/><item/></items>");
    let before = metrics().snapshot();
    // Waves of 10 rounds (40 tickets) keep the 64-slot admission queue
    // from shedding while still overlapping all four workers.
    for wave in 0..5 {
        let mut tickets = Vec::new();
        for round in 0..10 {
            for (i, q) in shapes.iter().enumerate() {
                tickets.push((i, round, svc.submit(QueryRequest::new(*q)).unwrap()));
            }
        }
        for (i, round, t) in tickets {
            let out = t
                .wait()
                .unwrap_or_else(|e| panic!("shape {i} wave {wave} round {round}: {e}"));
            assert_eq!(out.xml, expected[i], "shape {i} wave {wave} round {round}");
        }
    }
    let after = metrics().snapshot();
    // The exact O(shapes) guarantee, race-free because the registry is
    // per-service: 200 submissions, 4 first sightings.
    assert_eq!(svc.known_plan_shapes(), shapes.len());
    // Directional checks on the process-wide counters (lower bounds only:
    // other tests in this binary also drive the cache).
    assert!(
        after.plan_cache_misses >= before.plan_cache_misses + shapes.len() as u64,
        "each shape misses once on first sighting"
    );
    assert!(
        after.plan_cache_hits > before.plan_cache_hits,
        "25 rounds over 4 workers must produce per-worker hits"
    );
}

// ===== property tests ======================================================

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random integer corpus: a prepared query with a bound integer
    /// parameter equals the literal-inlined compile, on the optimized and
    /// the interpreter paths.
    #[test]
    fn prepared_params_match_inlining(
        keys in prop::collection::vec(0i64..9, 0..10),
        p in 0i64..9,
    ) {
        let list = keys
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let list = if list.is_empty() { "()".to_string() } else { format!("({list})") };
        let prepared_q = format!(
            "declare variable $p as xs:integer external; \
             for $x in {list} where $x >= $p return $x + 1"
        );
        let inlined_q = format!("for $x in {list} where $x >= {p} return $x + 1");
        let e = Engine::new();
        for mode in [ExecutionMode::NoAlgebra, ExecutionMode::OptimHashJoin] {
            let opts = CompileOptions::mode(mode);
            let mut prepared = e.prepare_cached(&prepared_q, &opts).unwrap();
            prepared.bind_param("p", Sequence::integers([p])).unwrap();
            let got = prepared.run_to_string(&e).unwrap();
            let want = e.prepare(&inlined_q, &opts).unwrap().run_to_string(&e).unwrap();
            prop_assert_eq!(&got, &want, "{:?}: {}", mode, prepared_q);
        }
    }

    /// Re-preparing through the cache never changes a random query's
    /// result, and the canonical hash is deterministic.
    #[test]
    fn cache_hits_are_transparent(keys in prop::collection::vec(0i64..20, 1..8)) {
        let list = keys
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let q = format!("for $x in ({list}) order by $x return $x * 3");
        let e = Engine::new();
        let opts = CompileOptions::mode(ExecutionMode::OptimHashJoin);
        let cold = e.prepare_cached(&q, &opts).unwrap();
        let hot = e.prepare_cached(&q, &opts).unwrap();
        prop_assert_eq!(cold.canonical_hash(), hot.canonical_hash());
        prop_assert_eq!(cold.explain(), hot.explain());
        prop_assert_eq!(
            cold.run_to_string(&e).unwrap(),
            hot.run_to_string(&e).unwrap()
        );
    }
}
