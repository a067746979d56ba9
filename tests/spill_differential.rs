//! Spill differential suite: the out-of-core operators (Grace hash join,
//! partition-spilling group-by, external merge-sort) must produce results
//! identical to their in-memory counterparts — same serialized output,
//! same error codes — whether the watermark flips mid-query or before the
//! first operator opens, on the XMark join
//! queries, a fixed corpus of join/group-by/order-by shapes (including
//! skewed keys that force recursive repartitioning and a single oversized
//! key that hits the depth cap), and randomly generated FLWOR queries.
//!
//! The second half (`mod failpoints`, compiled with
//! `--features failpoints`) drives the deterministic fault paths: spill
//! I/O retry-then-recover, retry exhaustion (`XQRG0005`), the engine's
//! rerun with spilling disabled, and temp-file hygiene after an injected
//! panic.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;
use xqr::engine::{CompileOptions, Engine, EngineError, ExecutionMode, Limits};
use xqr_xmark::{generate, query, GenOptions, QUERY_COUNT};

/// A budget small enough that any join build, group-by partition table, or
/// sort buffer crosses the 80% soft watermark and degrades to disk.
const TINY: u64 = 4 * 1024;

/// Every test here serializes on one lock: the failpoint registry and the
/// process metrics are global, and a fault injected by one test must not
/// leak into another test's spill path.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

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

/// A per-query limit set that forces spilling (spilling is on by default;
/// the tiny byte budget makes the watermark trip almost immediately).
fn spilled_limits() -> Limits {
    Limits::none().with_max_bytes(TINY)
}

/// A prolog whose global sorts (and is charged for) 200 tuples before the
/// query body opens a single cursor. Under [`spilled_limits`] that flips
/// the watermark up front, so the body's *first* join already runs the
/// Grace join — without it a lone join flips the watermark mid-build, too
/// late to spill itself.
const FLIP_FIRST: &str = "declare variable $flip := for $i in (1 to 200) order by $i return $i; ";

/// The core differential: unlimited in-memory vs forced-spill, with the
/// watermark flipping mid-query and up front, under both equality-join
/// algorithms.
fn assert_spill_matches_in_memory(e: &Engine, q: &str, label: &str) {
    for mode in [ExecutionMode::OptimHashJoin, ExecutionMode::OptimSortJoin] {
        for q in [q.to_string(), format!("{FLIP_FIRST}{q}")] {
            let in_mem = outcome(e, &q, &CompileOptions::mode(mode).limits(Limits::none()));
            let spilled = outcome(e, &q, &CompileOptions::mode(mode).limits(spilled_limits()));
            assert_eq!(
                in_mem, spilled,
                "{label}: spilled run diverged from in-memory (mode {mode:?})\nquery: {q}"
            );
        }
    }
}

fn xmark_engine(bytes: usize) -> Engine {
    let xml = generate(&GenOptions::for_bytes(bytes));
    let mut e = Engine::new();
    e.bind_document("auction.xml", &xml)
        .expect("auction document parses");
    e
}

/// A scratch directory under the system temp dir, unique per test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xqr-spill-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn entries(dir: &PathBuf) -> usize {
    match std::fs::read_dir(dir) {
        Ok(rd) => rd.count(),
        Err(_) => 0,
    }
}

/// The canary: an equi-join whose build charges ~25 KB, flipping the soft
/// watermark mid-build, followed by an order-by — the sort sees spill mode
/// already set at entry and genuinely goes to disk. (A lone join flips the
/// watermark too late to spill itself: charging is advisory once spilling
/// is on, so the build it is mid-way through completes in memory.)
const SPILL_JOIN: &str = "for $x in (1 to 800), $y in (1 to 800) \
                          where $x = $y order by $y descending return $y";

/// The retry-path canary: behind [`FLIP_FIRST`] the join is a Grace join,
/// which goes to disk no matter how roomy the budget (an external sort
/// would stay in memory while the table fits one run) — leaving plenty of
/// headroom for the strict in-memory rerun after a spill failure.
fn count_join() -> String {
    format!("{FLIP_FIRST}count(for $x in (1 to 800), $y in (1 to 800) where $x = $y return $x)")
}

/// The in-memory reference result for a query (unlimited budget).
fn in_memory(e: &Engine, q: &str) -> Result<String, String> {
    outcome(
        e,
        q,
        &CompileOptions::mode(ExecutionMode::OptimHashJoin).limits(Limits::none()),
    )
}

// ===== differential: fixed corpus ==========================================

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
fn fixed_corpus_spilled_matches_in_memory() {
    let _l = lock();
    let mut e = Engine::new();
    e.bind_document("bib.xml", BIB).unwrap();
    let queries: &[&str] = &[
        // Equi-joins large enough to spill the build side many times over.
        "count(for $x in (1 to 400), $y in (1 to 400) where $x = $y return $x)",
        "sum(for $x in (1 to 120), $y in (1 to 240) where $x = $y return $x + $y)",
        // Skewed keys: 10 distinct values over 200 outer tuples, so every
        // partition repartitions recursively before fitting.
        "for $x in (for $i in (1 to 200) return $i mod 10), \
             $y in (1 to 9) where $x = $y return $y",
        // A single oversized key: repartitioning cannot split it, so the
        // depth cap forces a whole-partition in-memory load.
        "count(for $x in (for $i in (1 to 150) return 1), \
               $y in (for $j in (1 to 150) return 1) where $x = $y return 1)",
        // Group-by with duplicate keys (outer-join/group-by unnesting).
        "for $x in (for $i in (1 to 200) return $i mod 10) \
         let $m := (for $y in (1 to 50) where $y = $x return $y) \
         return ($x, count($m))",
        "for $b in doc('bib.xml')/bib/book \
         let $cheap := for $p in $b/price where number($p) < 100 return $p \
         return count($cheap)",
        // Order-by with heavy ties: external merge-sort must stay stable.
        "for $x at $i in (for $j in (1 to 300) return $j mod 7) \
         order by $x return ($x, $i)",
        "for $x in (1 to 250) order by $x mod 5, $x descending return $x",
        // Join + order-by + group-by stacked in one pipeline.
        "for $x in (for $i in (1 to 90) return $i mod 9) \
         let $m := (for $y in (1 to 30) where $y = $x return $y) \
         order by $x descending, count($m) return ($x, count($m))",
        // Untyped keys against durations and gYears, both ways round (the
        // globals make both sides join inputs): the Grace join routes
        // untyped outer values to the typed partitions and typed outer
        // values to every partition.
        "declare variable $t := for $i in (1 to 200) return if ($i mod 2 = 1) \
           then xs:duration(concat('P', $i, 'D')) else xs:gYear(string(1900 + $i)); \
         declare variable $u := for $j in (1 to 200) return <a>{if ($j mod 2 = 1) \
           then concat('P', $j, 'D') else 1900 + $j}</a>; \
         count(for $x in $t, $y in $u where $x = $y return 1), \
         count(for $y in $u, $x in $t where $x = $y return 1)",
        // Errors must carry the same code whether or not the query spills.
        "for $x in (1 to 200), $y in (1 to 200) \
         where $x = $y return $x idiv ($x - 100)",
    ];
    for q in queries {
        assert_spill_matches_in_memory(&e, q, "fixed corpus");
    }
}

#[test]
fn xmark_join_queries_spilled_match_in_memory() {
    let _l = lock();
    let e = xmark_engine(60_000);
    for n in [8, 9, 11] {
        assert_spill_matches_in_memory(&e, query(n), &format!("XMark Q{n}"));
    }
}

/// Clio N3's innermost join probes one composite key (`author` and
/// `year`): out of core it partitions on that key, and must answer as the
/// in-memory index does.
#[test]
fn clio_n3_composite_key_spilled_matches_in_memory() {
    let _l = lock();
    let mut e = Engine::new();
    let xml = xqr_clio::generate_dblp(&xqr_clio::DblpOptions::for_bytes(6_000));
    e.bind_document("dblp.xml", &xml).unwrap();
    let n3 = xqr_clio::mapping_query(3);
    assert_spill_matches_in_memory(&e, &n3, "Clio N3");
    // Behind the prolog every outer join runs the Grace join, the
    // composite-key one included.
    let p = e
        .prepare(
            &format!("{FLIP_FIRST}{n3}"),
            &CompileOptions::mode(ExecutionMode::OptimHashJoin)
                .limits(spilled_limits())
                .with_profiling(),
        )
        .unwrap();
    p.run_to_string(&e).expect("spilled run succeeds");
    let plan = p.explain();
    let label = |l: &str| {
        let join = l.split_whitespace().find(|w| w.starts_with("LOuterJoin["));
        join.unwrap_or_default().to_string()
    };
    let composite: Vec<String> = plan
        .lines()
        .filter(|l| l.contains(") and "))
        .map(label)
        .collect();
    assert_eq!(composite.len(), 1, "{plan}");
    let analyze = p.explain_analyze();
    let line = analyze.lines().find(|l| label(l) == composite[0]);
    assert!(
        line.is_some_and(|l| l.contains("spill_parts=")),
        "{}:\n{analyze}",
        composite[0]
    );
}

/// The acceptance gate: the whole XMark suite under a 256 KB byte budget
/// (every memory-hungry query degrades to disk) agrees with the unlimited
/// in-memory run.
#[test]
fn forced_spill_xmark_full_suite_under_256k() {
    let _l = lock();
    let e = xmark_engine(120_000);
    let forced = Limits::none().with_max_bytes(256 * 1024);
    for n in 1..=QUERY_COUNT {
        let q = query(n);
        let base = CompileOptions::mode(ExecutionMode::OptimHashJoin);
        let in_mem = outcome(&e, q, &base.clone().limits(Limits::none()));
        let spilled = outcome(&e, q, &base.limits(forced.clone()));
        assert_eq!(in_mem, spilled, "XMark Q{n} diverged under a 256 KB budget");
    }
}

// ===== watermark, budgets, and error codes =================================

#[test]
fn soft_watermark_flip_spills_instead_of_erroring() {
    let _l = lock();
    let e = xmark_engine(60_000);
    let before = e.metrics_snapshot().queries_spilled;
    // A 1% watermark (~1.3 KB) under a budget the query never reaches:
    // the flip happens long before the hard limit, so this exercises the
    // soft path in isolation.
    let limits = Limits::none()
        .with_max_bytes(128 * 1024)
        .with_spill_watermark(1);
    let r = outcome(
        &e,
        query(8),
        &CompileOptions::mode(ExecutionMode::OptimHashJoin).limits(limits),
    );
    assert!(
        r.is_ok(),
        "watermark crossing must degrade, not fail: {r:?}"
    );
    let after = e.metrics_snapshot().queries_spilled;
    assert!(
        after > before,
        "crossing the soft watermark must count in queries_spilled"
    );
}

#[test]
fn disabling_spill_restores_the_hard_byte_budget() {
    let _l = lock();
    let e = xmark_engine(60_000);
    let strict = Limits::none().with_max_bytes(TINY).with_spill(None);
    let r = outcome(
        &e,
        query(9),
        &CompileOptions::mode(ExecutionMode::OptimHashJoin).limits(strict),
    );
    assert_eq!(
        r,
        Err("XQRG0004".to_string()),
        "with spilling disabled the byte budget is a hard limit again"
    );
}

/// XMark Q9 — a correlated join whose inner side is built once and kept
/// for the run — under a budget it crosses (8 KB) and the CI gate's
/// (256 KB). Spilling on: when the watermark flips the kept build is
/// dropped and later opens go out of core; the bytes are the unbudgeted
/// run's. Spilling off: a strict budget keeps no build, so reservations
/// follow the per-open pattern and the outcome is pinned to what it was
/// when every open rebuilt — the hard-budget code at 8 KB, a fit at
/// 256 KB. Either way the scoped spill directory is gone afterwards.
#[test]
fn q9_kept_build_under_tight_budgets() {
    let _l = lock();
    let e = xmark_engine(120_000);
    let dir = scratch_dir("q9");
    let before = e.metrics_snapshot().queries_spilled;
    for mode in [ExecutionMode::OptimHashJoin, ExecutionMode::OptimSortJoin] {
        let expected = outcome(
            &e,
            query(9),
            &CompileOptions::mode(mode).limits(Limits::none()),
        );
        assert!(expected.is_ok(), "{expected:?}");
        for kb in [8, 256] {
            let budget = Limits::none()
                .with_max_bytes(kb * 1024)
                .with_spill_dir(dir.clone());
            let strict = budget.clone().with_spill(None);
            let spilling = outcome(&e, query(9), &CompileOptions::mode(mode).limits(budget));
            assert_eq!(spilling, expected, "{mode:?} {kb} KB: spilling on");
            let hard = outcome(&e, query(9), &CompileOptions::mode(mode).limits(strict));
            let pinned = if kb == 8 {
                Err("XQRG0004".to_string())
            } else {
                expected.clone()
            };
            assert_eq!(hard, pinned, "{mode:?} {kb} KB: spilling off");
            assert_eq!(entries(&dir), 0, "{mode:?} {kb} KB: spill dir not emptied");
        }
    }
    assert!(
        e.metrics_snapshot().queries_spilled > before,
        "the 8 KB runs must cross the watermark for this test to mean anything"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_budget_exhaustion_is_xqrg0006() {
    let _l = lock();
    let e = xmark_engine(60_000);
    // Spilling is required (tiny memory budget) but allowed only 64 bytes
    // of disk: the very first frame trips the disk budget.
    let limits = Limits::none().with_max_bytes(TINY).with_spill(Some(64));
    let r = outcome(
        &e,
        query(8),
        &CompileOptions::mode(ExecutionMode::OptimHashJoin).limits(limits),
    );
    assert_eq!(r, Err("XQRG0006".to_string()));
}

#[test]
fn spill_temp_dir_is_removed_on_success() {
    let _l = lock();
    let dir = scratch_dir("success");
    let mut e = Engine::new();
    e.bind_document("bib.xml", BIB).unwrap();
    let limits = spilled_limits().with_spill_dir(dir.clone());
    let expected = in_memory(&e, SPILL_JOIN);
    let before = e.metrics_snapshot().queries_spilled;
    let r = outcome(
        &e,
        SPILL_JOIN,
        &CompileOptions::mode(ExecutionMode::OptimHashJoin).limits(limits),
    );
    assert_eq!(r, expected);
    assert!(
        e.metrics_snapshot().queries_spilled > before,
        "the canary must actually spill for this test to mean anything"
    );
    assert_eq!(
        entries(&dir),
        0,
        "per-query spill dirs must be removed after a successful run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spill parent that is a regular *file*: creating the per-query dir
/// under it fails deterministically (even when running as root, unlike a
/// permission-bit test).
fn not_a_dir(tag: &str) -> PathBuf {
    let file = std::env::temp_dir().join(format!(
        "xqr-spill-test-{}-{tag}-notadir",
        std::process::id()
    ));
    std::fs::write(&file, b"x").unwrap();
    file
}

/// The spill attempt exhausts its I/O retries (`XQRG0005`); the engine
/// then reruns once with spilling disabled, and a roomy byte budget holds
/// the whole query in memory.
#[test]
fn unwritable_spill_parent_fails_with_xqrg0005_then_falls_back() {
    let _l = lock();
    let file = not_a_dir("roomy");
    let mut e = Engine::new();
    e.bind_document("bib.xml", BIB).unwrap();
    // A ~10 KB watermark forces the spill attempt while the 1 MB hard
    // budget still holds the whole query in memory on the rerun.
    let limits = Limits::none()
        .with_max_bytes(1024 * 1024)
        .with_spill_watermark(1)
        .with_spill_dir(file.join("sub"));
    let p = e
        .prepare(
            &count_join(),
            &CompileOptions::mode(ExecutionMode::OptimHashJoin).limits(limits),
        )
        .unwrap();
    assert_eq!(p.run_to_string(&e).map_err(err_code), Ok("800".to_string()));
    assert!(p.last_run_fell_back());
    assert!(
        p.explain().contains("spilling failed"),
        "the retry must be surfaced by explain(): {}",
        p.explain()
    );
    let _ = std::fs::remove_file(&file);
}

/// The same unusable spill dir under a budget the strict in-memory rerun
/// cannot meet: the rerun fails, and the run reports the original
/// `XQRG0005`, not the rerun's budget error.
#[test]
fn unwritable_spill_parent_without_memory_headroom_stays_xqrg0005() {
    let _l = lock();
    let file = not_a_dir("tight");
    let mut e = Engine::new();
    e.bind_document("bib.xml", BIB).unwrap();
    let p = e
        .prepare(
            &count_join(),
            &CompileOptions::mode(ExecutionMode::OptimHashJoin)
                .limits(spilled_limits().with_spill_dir(file.join("sub"))),
        )
        .unwrap();
    assert_eq!(
        p.run_to_string(&e).map_err(err_code),
        Err("XQRG0005".to_string()),
        "an unusable spill dir exhausts the I/O retries"
    );
    assert!(p.last_run_fell_back(), "the strict rerun was attempted");
    let _ = std::fs::remove_file(&file);
}

// ===== observability =======================================================

#[test]
fn explain_analyze_reports_spilled_bytes() {
    let _l = lock();
    let e = xmark_engine(60_000);
    let p = e
        .prepare(
            query(8),
            &CompileOptions::mode(ExecutionMode::OptimHashJoin)
                .limits(spilled_limits())
                .with_profiling(),
        )
        .unwrap();
    p.run_to_string(&e).expect("spilled run succeeds");
    let analyze = p.explain_analyze();
    assert!(
        analyze.contains("spilled="),
        "EXPLAIN ANALYZE must carry the per-operator spill annotation:\n{analyze}"
    );
}

/// The coverage claim behind [`FLIP_FIRST`]: a lone equi-join builds in
/// memory (the watermark flips mid-build), and the same join behind the
/// prolog goes through the Grace join.
#[test]
fn flip_first_prolog_sends_the_first_join_out_of_core() {
    let _l = lock();
    let e = Engine::new();
    let join = "count(for $x in (1 to 400), $y in (1 to 400) where $x = $y return $x)";
    let join_line = |q: &str| {
        let p = e
            .prepare(
                q,
                &CompileOptions::mode(ExecutionMode::OptimHashJoin)
                    .limits(spilled_limits())
                    .with_profiling(),
            )
            .unwrap();
        assert_eq!(p.run_to_string(&e).map_err(err_code), Ok("400".to_string()));
        let analyze = p.explain_analyze();
        let line = analyze.lines().find(|l| l.contains(" Join "));
        line.unwrap_or_else(|| panic!("no Join line:\n{analyze}"))
            .to_string()
    };
    assert!(!join_line(join).contains("spill_parts="), "lone join");
    let flipped = join_line(&format!("{FLIP_FIRST}{join}"));
    assert!(flipped.contains("spill_parts="), "{flipped}");
}

// ===== randomized cross-limit property =====================================

/// Small total FLWOR queries (no division, so no value errors): joins,
/// group-by-shaped unnesting, and order-by over enough integers that the
/// tiny budget makes every shape spill.
fn flwor_query() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(0i64..12, 1..40),
        prop::collection::vec(0i64..12, 1..40),
        0i64..12,
        0usize..4,
    )
        .prop_map(|(xs, ys, k, shape)| {
            let xs = xs
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let ys = ys
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",");
            match shape {
                0 => format!("for $x in ({xs}), $y in ({ys}) where $x = $y return $x + 10 * $y"),
                1 => format!(
                    "for $x in ({xs}) let $m := (for $y in ({ys}) where $y = $x return $y) \
                     return ($x, count($m))"
                ),
                2 => format!(
                    "for $x at $i in ({xs}) where $x >= {k} order by $x, $i descending \
                     return ($i, $x)"
                ),
                _ => format!(
                    "for $x in ({xs}), $y in ({ys}) where $x = $y \
                     order by $y descending return $y"
                ),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_flwor_spilled_matches_in_memory(q in flwor_query()) {
        let _l = lock();
        let e = Engine::new();
        for mode in [ExecutionMode::OptimHashJoin, ExecutionMode::OptimSortJoin] {
            for q in [q.clone(), format!("{FLIP_FIRST}{q}")] {
                let in_mem = outcome(&e, &q, &CompileOptions::mode(mode).limits(Limits::none()));
                let spilled = outcome(&e, &q, &CompileOptions::mode(mode).limits(spilled_limits()));
                prop_assert_eq!(&in_mem, &spilled, "mode {:?} query {}", mode, q);
            }
        }
    }
}

// ===== fault injection (requires --features failpoints) ====================

#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use xqr_xml::failpoint::{self, FailGuard};

    fn bib_engine() -> Engine {
        let mut e = Engine::new();
        e.bind_document("bib.xml", BIB).unwrap();
        e
    }

    #[test]
    fn transient_spill_write_errors_are_retried() {
        let _l = lock();
        failpoint::clear();
        let e = bib_engine();
        let expected = in_memory(&e, SPILL_JOIN);
        let before = e.metrics_snapshot().spill_io_retries;
        let _g = FailGuard::new("spill::write", "err(2)").unwrap();
        let r = outcome(
            &e,
            SPILL_JOIN,
            &CompileOptions::mode(ExecutionMode::OptimHashJoin).limits(spilled_limits()),
        );
        assert_eq!(
            r, expected,
            "two transient write failures must be absorbed by the retry loop"
        );
        let after = e.metrics_snapshot().spill_io_retries;
        assert!(after >= before + 2, "both retries must be counted");
    }

    /// The strict in-memory rerun cannot meet the tiny budget either, so
    /// the exhaustion code is what the caller sees.
    #[test]
    fn persistent_spill_write_failure_exhausts_retries_to_xqrg0005() {
        let _l = lock();
        failpoint::clear();
        let e = bib_engine();
        let before = e.metrics_snapshot().failpoint_trips;
        let _g = FailGuard::new("spill::write", "err(1000)").unwrap();
        let r = outcome(
            &e,
            SPILL_JOIN,
            &CompileOptions::mode(ExecutionMode::OptimHashJoin).limits(spilled_limits()),
        );
        assert_eq!(r, Err("XQRG0005".to_string()));
        let after = e.metrics_snapshot().failpoint_trips;
        assert!(after >= before + 3, "each failed attempt trips the site");
    }

    /// The join build's charge site fires whether the build is kept for
    /// the run (Q9's inner join) or made per open.
    #[test]
    fn join_build_charge_failpoint_fires_on_a_kept_build() {
        let _l = lock();
        failpoint::clear();
        let e = xmark_engine(60_000);
        let _g = FailGuard::new("join::build_charge", "err(1)").unwrap();
        let r = outcome(
            &e,
            query(9),
            &CompileOptions::mode(ExecutionMode::OptimHashJoin).limits(Limits::none()),
        );
        assert_eq!(r, Err(failpoint::ERR_INJECTED.to_string()));
    }

    #[test]
    fn spill_failure_falls_back_to_strict_in_memory_run() {
        let _l = lock();
        failpoint::clear();
        let e = bib_engine();
        let _g = FailGuard::new("spill::write", "err(1000)").unwrap();
        // Low watermark over a roomy budget: run 1 tries to spill and the
        // injected fault kills it; the rerun with spilling disabled stays
        // under the 1 MB hard budget and succeeds.
        let limits = Limits::none()
            .with_max_bytes(1024 * 1024)
            .with_spill_watermark(1);
        let p = e
            .prepare(
                &count_join(),
                &CompileOptions::mode(ExecutionMode::OptimHashJoin).limits(limits),
            )
            .unwrap();
        let r = p.run_to_string(&e).map_err(err_code);
        assert_eq!(r, Ok("800".to_string()));
        assert!(
            p.explain().contains("spilling failed"),
            "explain() must report the spill retry: {}",
            p.explain()
        );
    }

    #[test]
    fn injected_panic_leaves_no_temp_files_behind() {
        let _l = lock();
        failpoint::clear();
        let dir = scratch_dir("panic");
        let e = bib_engine();
        let limits = spilled_limits().with_spill_dir(dir.clone());
        let _g = FailGuard::new("spill::write", "panic").unwrap();
        let r = catch_unwind(AssertUnwindSafe(|| {
            outcome(
                &e,
                SPILL_JOIN,
                &CompileOptions::mode(ExecutionMode::OptimHashJoin).limits(limits),
            )
        }));
        // The engine's isolation boundary usually converts the panic into
        // an Internal error; either way the run must not succeed and the
        // scoped spill dir must be gone.
        assert!(
            !matches!(r, Ok(Ok(_))),
            "a spill-site panic cannot produce a result"
        );
        assert_eq!(
            entries(&dir),
            0,
            "spill temp files leaked past a panic unwind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn phase_boundary_failpoint_surfaces_the_injected_code() {
        let _l = lock();
        failpoint::clear();
        let e = bib_engine();
        let _g = FailGuard::new("phase::execute", "err(1)").unwrap();
        let r = outcome(
            &e,
            "1 + 1",
            &CompileOptions::mode(ExecutionMode::OptimHashJoin),
        );
        assert_eq!(
            r,
            Err(failpoint::ERR_INJECTED.to_string()),
            "an execute-phase failpoint must surface its injected code"
        );
    }

    /// Opt-in chaos sweep: `XQR_CHAOS_SEED=<n> cargo test --features
    /// failpoints` derives a schedule of *transient* faults (at most two
    /// injected errors per retryable site, always absorbed by the 3-attempt
    /// retry loop) and asserts the differential still holds under them.
    #[test]
    fn chaos_seeded_transient_faults_are_absorbed() {
        let Ok(seed) = std::env::var("XQR_CHAOS_SEED") else {
            return;
        };
        let seed: u64 = seed.parse().unwrap_or(0xC0FFEE);
        eprintln!("chaos sweep with XQR_CHAOS_SEED={seed}");
        let _l = lock();
        failpoint::clear();
        let sites = ["spill::write", "spill::read", "spill::open"];
        // A tiny deterministic LCG picks the schedule from the seed.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let e = bib_engine();
        let corpus = [
            SPILL_JOIN,
            "for $x in (for $i in (1 to 200) return $i mod 10) \
             let $m := (for $y in (1 to 50) where $y = $x return $y) \
             return ($x, count($m))",
            "for $x in (1 to 250) order by $x mod 5, $x descending return $x",
        ];
        for q in corpus {
            let site = sites[next(sites.len() as u64) as usize];
            let errs = 1 + next(2);
            failpoint::configure(site, &format!("err({errs})")).unwrap();
            let in_mem = outcome(
                &e,
                q,
                &CompileOptions::mode(ExecutionMode::OptimHashJoin).limits(Limits::none()),
            );
            let spilled = outcome(
                &e,
                q,
                &CompileOptions::mode(ExecutionMode::OptimHashJoin).limits(spilled_limits()),
            );
            failpoint::clear();
            assert_eq!(
                in_mem, spilled,
                "seed {seed}: transient {site}=err({errs}) changed the result of {q}"
            );
        }
    }
}
