//! Per-query-shape circuit breakers.
//!
//! A query shape that repeatedly dies with internal errors (caught
//! panics) is a standing hazard in a multi-tenant service: every
//! resubmission burns a worker slot, a memory reservation, and a full
//! execution before failing the same way. The breaker registry keys a
//! classic closed → open → half-open state machine by the query's
//! *normalized plan hash* (the stable rendering of the rewritten algebra
//! plan, so syntactic variants that compile to the same plan share one
//! breaker; queries that fail before a plan exists fall back to a
//! query-text hash).
//!
//! * **Closed** — failures are counted; `failure_threshold` *consecutive*
//!   internal failures trip the breaker (successes and non-internal
//!   errors reset the count: a budget trip or a dynamic error is the
//!   query's fault, not the engine's).
//! * **Open** — submissions fast-fail with `XQRG0008` (no execution, no
//!   reservation held) until `cooldown` has elapsed.
//! * **Half-open** — the first submission after the cooldown is admitted
//!   as a *probe*; concurrent submissions keep fast-failing while the
//!   probe is in flight. A successful probe closes the breaker; an
//!   internal failure re-opens it for another cooldown.
//!
//! Failures flow in from two directions: the worker records each run's
//! outcome itself, and the network frontend's stuck-query watchdog
//! ([`crate::server`]) records an *escalation* — a query cancelled for
//! running past its deadline without governor progress — as an internal
//! failure too, so a plan shape that repeatedly wedges starts
//! fast-failing even though each wedged run "only" times out.
//!
//! The registry is shared across worker threads behind a mutex; every
//! operation is a short map lookup, far off any per-tuple path.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use xqr_xml::limits::ERR_BREAKER;
use xqr_xml::metrics::metrics;
use xqr_xml::XmlError;

/// Tuning for the per-shape circuit breakers.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive internal failures that trip a closed breaker.
    pub failure_threshold: u32,
    /// How long an open breaker fast-fails before half-opening.
    pub cooldown: Duration,
    /// Master switch; `false` makes every admission pass and nothing is
    /// recorded.
    pub enabled: bool,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(10),
            enabled: true,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Closed,
    Open,
    /// A probe is in flight; everyone else keeps fast-failing.
    HalfOpen,
}

#[derive(Debug)]
struct Shape {
    state: State,
    consecutive_failures: u32,
    opened_at: Instant,
}

/// The outcome of [`CircuitBreakers::admit`] for an admitted submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed (or disabled): normal execution.
    Normal,
    /// Half-open probe: the run's outcome decides the breaker's fate.
    Probe,
}

/// Registry of breakers, keyed by normalized plan-shape hash.
pub struct CircuitBreakers {
    cfg: BreakerConfig,
    shapes: Mutex<HashMap<u64, Shape>>,
}

impl CircuitBreakers {
    pub fn new(cfg: BreakerConfig) -> CircuitBreakers {
        CircuitBreakers {
            cfg,
            shapes: Mutex::new(HashMap::new()),
        }
    }

    /// Gates a submission for `shape`. Fast-fails with `XQRG0008` while
    /// the breaker is open (or a half-open probe is already in flight).
    pub fn admit(&self, shape: u64) -> Result<Admission, XmlError> {
        if !self.cfg.enabled {
            return Ok(Admission::Normal);
        }
        let mut shapes = self.shapes.lock().unwrap_or_else(|p| p.into_inner());
        let Some(s) = shapes.get_mut(&shape) else {
            return Ok(Admission::Normal);
        };
        match s.state {
            State::Closed => Ok(Admission::Normal),
            State::HalfOpen => {
                // A probe whose outcome never came back (worker died mid
                // run) must not wedge the shape half-open forever; after a
                // full extra cooldown another probe may go out.
                if s.opened_at.elapsed() >= self.cfg.cooldown.saturating_mul(2) {
                    s.opened_at = Instant::now();
                    Ok(Admission::Probe)
                } else {
                    Err(self.fast_fail(shape, "probe in flight"))
                }
            }
            State::Open => {
                if s.opened_at.elapsed() >= self.cfg.cooldown {
                    s.state = State::HalfOpen;
                    // From here `opened_at` marks the probe's start (the
                    // stale-probe recovery above measures against it).
                    s.opened_at = Instant::now();
                    Ok(Admission::Probe)
                } else {
                    Err(self.fast_fail(shape, "cooling down"))
                }
            }
        }
    }

    /// Records a run's outcome for `shape`. `internal_failure` is true
    /// only for engine-fault failures (caught panics); ordinary dynamic or limit errors count as the breaker's
    /// notion of success.
    pub fn record(&self, shape: u64, internal_failure: bool) {
        if !self.cfg.enabled {
            return;
        }
        let mut shapes = self.shapes.lock().unwrap_or_else(|p| p.into_inner());
        if internal_failure {
            let s = shapes.entry(shape).or_insert(Shape {
                state: State::Closed,
                consecutive_failures: 0,
                opened_at: Instant::now(),
            });
            match s.state {
                State::Closed => {
                    s.consecutive_failures += 1;
                    if s.consecutive_failures >= self.cfg.failure_threshold {
                        s.state = State::Open;
                        s.opened_at = Instant::now();
                        metrics().record_breaker_trip();
                    }
                }
                // A failed probe re-opens for a fresh cooldown. (An Open
                // record can only come from a submission admitted before
                // the trip; re-arm the cooldown there too.)
                State::HalfOpen | State::Open => {
                    s.state = State::Open;
                    s.opened_at = Instant::now();
                    metrics().record_breaker_trip();
                }
            }
        } else {
            // Success (or a non-internal error): close and forget. The
            // entry is removed so the hot path for healthy shapes stays a
            // missing-key lookup.
            shapes.remove(&shape);
        }
    }

    /// The current state of `shape`'s breaker: `"closed"` (including
    /// never-seen and disabled), `"open"`, or `"half-open"`. Read-only —
    /// does not advance the open → half-open transition.
    pub fn state_of(&self, shape: u64) -> &'static str {
        if !self.cfg.enabled {
            return "closed";
        }
        match self
            .shapes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&shape)
            .map(|s| s.state)
        {
            None | Some(State::Closed) => "closed",
            Some(State::Open) => "open",
            Some(State::HalfOpen) => "half-open",
        }
    }

    /// The current number of open or half-open breakers (diagnostics).
    pub fn open_count(&self) -> usize {
        self.shapes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .filter(|s| s.state != State::Closed)
            .count()
    }

    fn fast_fail(&self, shape: u64, why: &str) -> XmlError {
        metrics().record_breaker_fast_fail();
        XmlError::new(
            ERR_BREAKER,
            format!(
                "circuit breaker open for plan shape {shape:016x} ({why}); \
                 retry after the cooldown"
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakers(threshold: u32, cooldown: Duration) -> CircuitBreakers {
        CircuitBreakers::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown,
            enabled: true,
        })
    }

    #[test]
    fn trips_after_consecutive_failures_and_fast_fails() {
        let b = breakers(2, Duration::from_secs(60));
        assert_eq!(b.admit(1).unwrap(), Admission::Normal);
        b.record(1, true);
        assert_eq!(b.admit(1).unwrap(), Admission::Normal);
        b.record(1, true);
        let err = b.admit(1).unwrap_err();
        assert_eq!(err.code, ERR_BREAKER);
        assert_eq!(b.open_count(), 1);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let b = breakers(2, Duration::from_secs(60));
        b.record(7, true);
        b.record(7, false); // resets
        b.record(7, true);
        assert_eq!(b.admit(7).unwrap(), Admission::Normal, "not tripped");
    }

    #[test]
    fn cooldown_half_opens_and_probe_outcome_decides() {
        let b = breakers(1, Duration::from_millis(5));
        b.record(3, true); // trips immediately (threshold 1)
        assert!(b.admit(3).is_err(), "open: fast fail");
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(b.admit(3).unwrap(), Admission::Probe, "half-open probe");
        assert!(b.admit(3).is_err(), "second caller fails while probing");
        b.record(3, true); // probe failed: re-open
        assert!(b.admit(3).is_err(), "re-opened");
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(b.admit(3).unwrap(), Admission::Probe);
        b.record(3, false); // probe succeeded: closed
        assert_eq!(b.admit(3).unwrap(), Admission::Normal);
        assert_eq!(b.open_count(), 0);
    }

    #[test]
    fn disabled_breakers_never_interfere() {
        let b = CircuitBreakers::new(BreakerConfig {
            enabled: false,
            failure_threshold: 1,
            cooldown: Duration::from_secs(60),
        });
        b.record(9, true);
        b.record(9, true);
        assert_eq!(b.admit(9).unwrap(), Admission::Normal);
    }

    #[test]
    fn shapes_are_independent() {
        let b = breakers(1, Duration::from_secs(60));
        b.record(1, true);
        assert!(b.admit(1).is_err());
        assert_eq!(b.admit(2).unwrap(), Admission::Normal);
    }
}
