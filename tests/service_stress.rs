//! Concurrent query-service suite: N-thread XMark runs must be
//! result-identical to single-threaded execution; overload must shed with
//! `XQRG0007` instead of deadlocking; randomized cancellation under tight
//! budgets must only ever surface the stable `XQRG*` codes; and cancelled
//! mid-spill queries must leave no orphan spill directories behind.
//!
//! The second half (`mod failpoints`, compiled with
//! `--features failpoints`) drives the deterministic fault paths: the
//! `service::admit` / `service::dispatch` injection sites, transient
//! `doc::load` failures absorbed by the retry policy, the circuit breaker
//! tripping and half-opening on schedule, and a seeded chaos run at 2x
//! capacity.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use xqr::engine::{
    CompileOptions, Engine, EngineError, Limits, QueryRequest, QueryService, ServiceConfig,
};
use xqr_xmark::{generate, query, GenOptions, QUERY_COUNT};

/// Every test serializes on one lock: the failpoint registry and the
/// process metrics are global, and a fault injected by one test must not
/// leak into another test's service.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn err_code(e: &EngineError) -> String {
    match e {
        EngineError::Dynamic(x) => x.code.to_string(),
        EngineError::Syntax(_) => "SYNTAX".to_string(),
        EngineError::LimitExceeded { code, .. } => code.to_string(),
        EngineError::Internal { .. } => "INTERNAL".to_string(),
    }
}

/// Deterministic rng for the randomized-cancellation schedules.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xqr-service-test-{}-{name}", std::process::id()));
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

/// Single-threaded reference answers for all twenty XMark queries.
fn reference_answers(xml: &str) -> Vec<String> {
    let mut e = Engine::new();
    e.bind_document("auction.xml", xml).expect("auction parses");
    (1..=QUERY_COUNT)
        .map(|n| {
            e.prepare(query(n), &CompileOptions::default())
                .unwrap_or_else(|err| panic!("Q{n} prepare: {err}"))
                .run_to_string(&e)
                .unwrap_or_else(|err| panic!("Q{n} run: {err}"))
        })
        .collect()
}

/// The spilling canary from the spill differential suite: the join build
/// crosses the tiny watermark, and the trailing sort genuinely goes to
/// disk. Needs no document.
const SPILL_JOIN: &str = "for $x in (1 to 800), $y in (1 to 800) \
                          where $x = $y order by $y descending return $y";

#[test]
fn concurrent_xmark_matches_single_threaded() {
    let _l = lock();
    let xml = generate(&GenOptions::for_bytes(80_000));
    let expected = reference_answers(&xml);
    let svc = QueryService::new(ServiceConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServiceConfig::default()
    });
    svc.bind_document("auction.xml", xml);
    std::thread::scope(|s| {
        for t in 0..4 {
            let svc = &svc;
            let expected = &expected;
            s.spawn(move || {
                // Each thread walks the queries at a different offset so
                // all shapes are in flight together.
                for i in 0..QUERY_COUNT {
                    let n = 1 + (i + t * 5) % QUERY_COUNT;
                    let out = svc
                        .run(QueryRequest::new(query(n)))
                        .unwrap_or_else(|err| panic!("thread {t} Q{n}: {err}"));
                    assert_eq!(out.xml, expected[n - 1], "thread {t} Q{n} diverged");
                }
            });
        }
    });
}

#[test]
fn randomized_cancellation_yields_only_stable_codes() {
    let _l = lock();
    let xml = generate(&GenOptions::for_bytes(60_000));
    let expected = reference_answers(&xml);
    let svc = QueryService::new(ServiceConfig {
        workers: 3,
        queue_capacity: 64,
        ..ServiceConfig::default()
    });
    svc.bind_document("auction.xml", xml);
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let svc = &svc;
            let expected = &expected;
            s.spawn(move || {
                let mut rng = 0xC0FF_EE00 + t;
                for i in 0..QUERY_COUNT {
                    let n = 1 + (i + t as usize * 7) % QUERY_COUNT;
                    // Tight-ish budgets: random low tuple caps and short
                    // deadlines mix budget trips into the run.
                    let mut limits = Limits::none();
                    match splitmix(&mut rng) % 4 {
                        0 => limits = limits.with_max_tuples(1 + splitmix(&mut rng) % 5_000),
                        1 => {
                            limits = limits.with_deadline(Duration::from_micros(
                                1 + splitmix(&mut rng) % 3_000,
                            ))
                        }
                        _ => {}
                    }
                    let req = QueryRequest::new(query(n))
                        .with_options(CompileOptions::default().limits(limits));
                    let ticket = match svc.submit(req) {
                        Ok(tk) => tk,
                        Err(e) => {
                            assert_eq!(err_code(&e), "XQRG0007", "unexpected submit error {e}");
                            continue;
                        }
                    };
                    // Randomized cancellation: some immediately, some
                    // after a short delay, some never.
                    match splitmix(&mut rng) % 3 {
                        0 => ticket.cancel(),
                        1 => {
                            let token = ticket.token();
                            let delay = splitmix(&mut rng) % 2_000;
                            s.spawn(move || {
                                std::thread::sleep(Duration::from_micros(delay));
                                token.cancel();
                            });
                        }
                        _ => {}
                    }
                    match ticket.wait() {
                        Ok(out) => {
                            assert_eq!(out.xml, expected[n - 1], "thread {t} Q{n} diverged")
                        }
                        Err(e) => {
                            let code = err_code(&e);
                            assert!(
                                matches!(
                                    code.as_str(),
                                    "XQRG0001" | "XQRG0002" | "XQRG0003" | "XQRG0007"
                                ),
                                "thread {t} Q{n}: unstable error {code}: {e}"
                            );
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn overload_sheds_queue_overflow_and_recovers() {
    let _l = lock();
    let before = Engine::new().metrics_snapshot();
    let svc = QueryService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServiceConfig::default()
    });
    // Stall the single worker in its document sync until released.
    let (permit_tx, permit_rx) = std::sync::mpsc::channel::<()>();
    let permit_rx = Mutex::new(permit_rx);
    svc.register_document("gate.xml");
    svc.set_loader(move |_| {
        let _ = permit_rx.lock().unwrap().recv();
        Ok("<gate/>".to_string())
    });
    let first = svc.submit(QueryRequest::new("1")).unwrap();
    // Wait until the worker holds `first`, then fill the queue exactly.
    while svc.queue_depth() > 0 {
        std::thread::yield_now();
    }
    let queued: Vec<_> = (0..2)
        .map(|i| svc.submit(QueryRequest::new(format!("{i} + 10"))).unwrap())
        .collect();
    // 2x the sustainable load: every further submission is shed, fast.
    let mut sheds = 0;
    for _ in 0..6 {
        match svc.submit(QueryRequest::new("2")) {
            Err(e) => {
                assert_eq!(err_code(&e), "XQRG0007");
                sheds += 1;
            }
            Ok(t) => drop(t.wait()),
        }
    }
    assert_eq!(sheds, 6, "queue was full: every overflow submission sheds");
    permit_tx.send(()).unwrap();
    // The shed submissions did not wedge anything: the admitted ones all
    // complete once the gate opens.
    assert_eq!(first.wait().unwrap().xml, "1");
    for (i, t) in queued.into_iter().enumerate() {
        assert_eq!(t.wait().unwrap().xml, (i + 10).to_string());
    }
    // Satellite: the service counters surface through the engine metrics
    // facade, and deltas account for this test's traffic.
    let after = Engine::new().metrics_snapshot();
    assert!(after.service_admitted >= before.service_admitted + 3);
    assert!(after.service_shed >= before.service_shed + 6);
    let text = Engine::new().metrics_prometheus();
    assert!(text.contains("\nxqr_service_admitted "), "{text}");
    assert!(text.contains("\nxqr_service_shed "), "{text}");
    assert!(text.contains("\nxqr_breaker_trips "), "{text}");
    let json = Engine::new().metrics_json();
    assert!(json.contains("\"service_shed\""), "{json}");
}

#[test]
fn cancelled_spilling_queries_leave_no_orphan_dirs() {
    let _l = lock();
    let dir = scratch_dir("cancel-spill");
    let before = Engine::new().metrics_snapshot().queries_spilled;
    let limits = Limits::none()
        .with_max_bytes(4 * 1024)
        .with_spill_dir(dir.clone());
    {
        let svc = QueryService::new(ServiceConfig {
            workers: 3,
            queue_capacity: 32,
            ..ServiceConfig::default()
        });
        let mut rng = 0xDEAD_BEEF_u64;
        let mut tickets = Vec::new();
        for _ in 0..12 {
            let req = QueryRequest::new(SPILL_JOIN)
                .with_options(CompileOptions::default().limits(limits.clone()));
            tickets.push(svc.submit(req).unwrap());
        }
        for ticket in tickets {
            // Cancel roughly half of the queries at random points — some
            // mid-spill, some queued, some already done. Every outcome
            // must still remove the per-query spill directory.
            if splitmix(&mut rng).is_multiple_of(2) {
                std::thread::sleep(Duration::from_micros(splitmix(&mut rng) % 4_000));
                ticket.cancel();
            }
            match ticket.wait() {
                Ok(out) => assert!(out.xml.starts_with("800 799"), "{}", out.xml),
                Err(e) => {
                    let code = err_code(&e);
                    assert!(
                        matches!(code.as_str(), "XQRG0002"),
                        "unexpected error {code}: {e}"
                    );
                }
            }
        }
    } // drop: workers joined, every in-flight SpillManager dropped
    assert!(
        Engine::new().metrics_snapshot().queries_spilled > before,
        "the canary must actually spill for this test to mean anything"
    );
    assert_eq!(
        entries(&dir),
        0,
        "cancelled spilling queries must not orphan spill directories"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A served query whose spill dir cannot be created (its parent is a
/// regular file) degrades to one in-memory rerun with spilling disabled
/// and still answers; the journal, the shape table and the process
/// metrics all record the fallback.
#[test]
fn served_spill_failure_falls_back_to_an_in_memory_answer() {
    let _l = lock();
    let file =
        std::env::temp_dir().join(format!("xqr-service-test-{}-notadir", std::process::id()));
    std::fs::write(&file, b"x").unwrap();
    // A ~10 KB watermark forces the spill attempt; the 1 MB budget holds
    // the whole query in memory on the rerun. Behind the sorting global
    // the join is a Grace join, which always goes to disk once spilling.
    let limits = Limits::none()
        .with_max_bytes(1024 * 1024)
        .with_spill_watermark(1)
        .with_spill_dir(file.join("sub"));
    let q = "declare variable $flip := for $i in (1 to 200) order by $i return $i; \
             count(for $x in (1 to 800), $y in (1 to 800) where $x = $y return $x)";
    let before = Engine::new().metrics_snapshot().fallbacks_taken;
    let svc = QueryService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let out = svc
        .run(QueryRequest::new(q).with_options(CompileOptions::default().limits(limits)))
        .expect("the in-memory rerun answers");
    assert_eq!(out.xml, "800");
    let report = svc.observe();
    let tl = report
        .journal
        .iter()
        .find(|t| t.id == out.id)
        .expect("journal entry");
    assert!(tl.fell_back, "journal must record the fallback: {tl:?}");
    assert_eq!(tl.error, None);
    let hash = tl.plan_hash.expect("prepared");
    let shape = report
        .shapes
        .iter()
        .find(|s| s.plan_hash == hash)
        .expect("shape row");
    assert_eq!(shape.fallbacks, 1);
    assert_eq!(
        Engine::new().metrics_snapshot().fallbacks_taken,
        before + 1,
        "fallbacks_taken counts the rerun"
    );
    let _ = std::fs::remove_file(&file);
}

#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use xqr::engine::BreakerConfig;
    use xqr_xml::failpoint::{self, FailGuard};

    #[test]
    fn admit_failpoint_rejects_at_submission() {
        let _l = lock();
        failpoint::clear();
        let svc = QueryService::new(ServiceConfig::default());
        {
            let _g = FailGuard::new("service::admit", "err(1)").unwrap();
            let err = svc.submit(QueryRequest::new("1")).unwrap_err();
            assert_eq!(err_code(&err), "XQRFP01");
        }
        assert_eq!(svc.run(QueryRequest::new("1")).unwrap().xml, "1");
    }

    #[test]
    fn dispatch_failpoint_fails_one_query_worker_survives() {
        let _l = lock();
        failpoint::clear();
        let svc = QueryService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        {
            let _g = FailGuard::new("service::dispatch", "err(1)").unwrap();
            let err = svc.run(QueryRequest::new("1")).unwrap_err();
            assert_eq!(err_code(&err), "XQRFP01");
        }
        assert_eq!(svc.run(QueryRequest::new("2")).unwrap().xml, "2");
    }

    #[test]
    fn transient_doc_load_failures_are_retried() {
        let _l = lock();
        failpoint::clear();
        let before = Engine::new().metrics_snapshot().transient_retries;
        let svc = QueryService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        svc.register_document("flaky.xml");
        svc.set_loader(|_| Ok("<r><a/><a/></r>".to_string()));
        let _g = FailGuard::new("doc::load", "err(2)").unwrap();
        let out = svc
            .run(QueryRequest::new("count(doc('flaky.xml')//a)"))
            .unwrap();
        assert_eq!(out.xml, "2");
        let after = Engine::new().metrics_snapshot().transient_retries;
        assert!(
            after >= before + 2,
            "two injected failures must be metered as retries"
        );
    }

    #[test]
    fn exhausted_doc_load_surfaces_fodc0002() {
        let _l = lock();
        failpoint::clear();
        let svc = QueryService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        svc.register_document("down.xml");
        svc.set_loader(|_| Ok("<r/>".to_string()));
        let _g = FailGuard::new("doc::load", "err(1000)").unwrap();
        let err = svc.run(QueryRequest::new("doc('down.xml')")).unwrap_err();
        assert_eq!(err_code(&err), "FODC0002");
    }

    #[test]
    fn breaker_trips_then_half_opens_then_closes() {
        let _l = lock();
        failpoint::clear();
        let before = Engine::new().metrics_snapshot();
        let svc = QueryService::new(ServiceConfig {
            workers: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(50),
                enabled: true,
            },
            ..ServiceConfig::default()
        });
        let q = "sum(1 to 10)";
        {
            // Two executions panic at the execute phase: both are caught
            // at the worker's isolation boundary as internal errors, and
            // the second trips the breaker for this query shape.
            let _g = FailGuard::new("phase::execute", "panic").unwrap();
            for _ in 0..2 {
                let err = svc.run(QueryRequest::new(q)).unwrap_err();
                assert!(matches!(err, EngineError::Internal { .. }), "{err}");
            }
        }
        // Open: fast-fails without executing (the failpoint is gone, so
        // an execution would succeed — the breaker refuses anyway).
        let err = svc.run(QueryRequest::new(q)).unwrap_err();
        assert_eq!(err_code(&err), "XQRG0008");
        assert_eq!(svc.open_breakers(), 1);
        // Other shapes are unaffected while this one cools down.
        assert_eq!(svc.run(QueryRequest::new("1 + 1")).unwrap().xml, "2");
        // After the cooldown the half-open probe runs for real and its
        // success closes the breaker.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(svc.run(QueryRequest::new(q)).unwrap().xml, "55");
        assert_eq!(svc.open_breakers(), 0);
        assert_eq!(svc.run(QueryRequest::new(q)).unwrap().xml, "55");
        let after = Engine::new().metrics_snapshot();
        assert!(after.breaker_trips > before.breaker_trips);
        assert!(after.breaker_fast_fails > before.breaker_fast_fails);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let _l = lock();
        failpoint::clear();
        let svc = QueryService::new(ServiceConfig {
            workers: 1,
            breaker: BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_millis(40),
                enabled: true,
            },
            ..ServiceConfig::default()
        });
        let q = "count((1, 2, 3))";
        let _g = FailGuard::new("phase::execute", "panic").unwrap();
        // Threshold 1: the first internal failure trips the breaker.
        assert!(svc.run(QueryRequest::new(q)).is_err());
        assert_eq!(
            err_code(&svc.run(QueryRequest::new(q)).unwrap_err()),
            "XQRG0008"
        );
        std::thread::sleep(Duration::from_millis(50));
        // The probe still panics: re-opened for another full cooldown.
        let err = svc.run(QueryRequest::new(q)).unwrap_err();
        assert!(matches!(err, EngineError::Internal { .. }), "{err}");
        assert_eq!(
            err_code(&svc.run(QueryRequest::new(q)).unwrap_err()),
            "XQRG0008"
        );
    }

    /// Seeded chaos at 2x capacity: slow dispatches, random cancels, and
    /// injected faults. The service must keep shedding `XQRG0007` (never
    /// deadlock) and every reply must carry a stable code.
    #[test]
    fn chaos_at_double_capacity_sheds_instead_of_deadlocking() {
        let _l = lock();
        failpoint::clear();
        let before = Engine::new().metrics_snapshot();
        let svc = QueryService::new(ServiceConfig {
            workers: 2,
            queue_capacity: 4,
            ..ServiceConfig::default()
        });
        // Every dispatch stalls 5 ms: 2 workers drain ~400 qps; the
        // submission loop below offers far more than 2x that.
        let _slow = FailGuard::new("service::dispatch", "delay(5)").unwrap();
        let mut rng = 0x5EED_5EED_u64;
        let mut shed = 0u32;
        let mut completed = 0u32;
        let mut tickets = Vec::new();
        for i in 0..60 {
            match svc.submit(QueryRequest::new(format!("{i} * 2"))) {
                Ok(t) => {
                    if splitmix(&mut rng).is_multiple_of(5) {
                        t.cancel();
                    }
                    tickets.push((i, t));
                }
                Err(e) => {
                    assert_eq!(err_code(&e), "XQRG0007", "{e}");
                    shed += 1;
                }
            }
            // Drain finished tickets opportunistically so the submission
            // rate stays ahead of the workers without unbounded waiting.
            if splitmix(&mut rng).is_multiple_of(4) {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        for (i, t) in tickets {
            match t.wait() {
                Ok(out) => {
                    assert_eq!(out.xml, (i * 2).to_string());
                    completed += 1;
                }
                Err(e) => {
                    let code = err_code(&e);
                    assert!(
                        matches!(code.as_str(), "XQRG0002" | "XQRG0007"),
                        "unstable chaos outcome {code}: {e}"
                    );
                }
            }
        }
        assert!(shed > 0, "2x overload must shed at least once");
        assert!(completed > 0, "the service must still make progress");
        let after = Engine::new().metrics_snapshot();
        assert!(after.service_shed >= before.service_shed + shed as u64);
    }
}
