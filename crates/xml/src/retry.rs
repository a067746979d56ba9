//! Generalized transient-failure retry with capped, jittered backoff.
//!
//! PR 5 grew an ad-hoc 3-attempt retry loop inside the spill-file
//! substrate; this module extracts it into the one policy every
//! transient-I/O path shares — spill reads/writes/opens and service-level
//! document loading alike — and fixes its two weaknesses:
//!
//! * **Deadline awareness.** Backoff sleeps are capped at the governor's
//!   remaining deadline and the clock/cancel flag is consulted both before
//!   and *after* every sleep, so a retrying operation can never run past
//!   the deadline it was already over (`XQRG0001`/`XQRG0002` surface
//!   instead of a wasted attempt).
//! * **Jitter.** Retries across concurrent queries are decorrelated by a
//!   deterministic per-(site, attempt) jitter drawn from a SplitMix64
//!   stream, so a shared flaky disk is not hammered in lockstep by every
//!   worker at once. Determinism (the stream is seeded from the policy
//!   seed and the site name, never from the clock) keeps chaos tests
//!   reproducible.
//!
//! The helper evaluates the named [`failpoint`](crate::failpoint) site
//! before each attempt: an injected `XQRFP01` error counts as a transient
//! failure and consumes an attempt (exactly the PR 5 contract), while any
//! other failpoint error — and any governor trip — aborts the retry loop
//! as [`RetryError::Fatal`]. Exhaustion is reported as
//! [`RetryError::Exhausted`] and the *caller* chooses the surfaced error
//! code (`XQRG0005` for spill I/O, `FODC0002` for document loading), so
//! the policy stays error-domain-agnostic.
//!
//! Every retry (not first attempts) is counted into the process metrics
//! (`transient_retries`; spill sites additionally keep the PR 5
//! `spill_io_retries` counter).

use std::time::Duration;

use crate::failpoint;
use crate::limits::Governor;
use crate::metrics::metrics;
use crate::XmlError;

/// How a transient operation is retried. The defaults reproduce PR 5's
/// spill policy (3 attempts, 1 ms then 2 ms) plus up to 50% jitter.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per subsequent attempt.
    pub base: Duration,
    /// Cap on any single backoff sleep (pre-jitter).
    pub cap: Duration,
    /// Extra sleep of up to this percentage of the computed backoff,
    /// drawn deterministically per (seed, site, attempt). 0 disables.
    pub jitter_pct: u8,
    /// Seed of the jitter stream. Fixed by default so runs are
    /// reproducible; services may salt it per worker.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
            jitter_pct: 50,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    pub fn with_attempts(mut self, n: u32) -> RetryPolicy {
        self.attempts = n.max(1);
        self
    }

    pub fn with_base(mut self, d: Duration) -> RetryPolicy {
        self.base = d;
        self
    }

    pub fn with_cap(mut self, d: Duration) -> RetryPolicy {
        self.cap = d;
        self
    }

    pub fn with_jitter_pct(mut self, pct: u8) -> RetryPolicy {
        self.jitter_pct = pct.min(100);
        self
    }

    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// The backoff before attempt `attempt` (1-based over retries:
    /// attempt 1 is the first *retry*), jittered and capped.
    fn backoff(&self, site: &str, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self.base.saturating_mul(1 << exp).min(self.cap);
        if self.jitter_pct == 0 || raw.is_zero() {
            return raw;
        }
        // Deterministic decorrelation: SplitMix64 over (seed, site, attempt).
        let x = splitmix64(self.seed ^ fnv1a(site.as_bytes()) ^ u64::from(attempt));
        let frac = (x >> 11) as f64 / (1u64 << 53) as f64;
        let extra = raw.mul_f64(frac * f64::from(self.jitter_pct.min(100)) / 100.0);
        raw + extra
    }
}

/// Why a retried operation ultimately failed.
#[derive(Debug)]
pub enum RetryError {
    /// The governor tripped (deadline, cancellation) or a failpoint
    /// injected a non-transient error; the loop aborted immediately.
    Fatal(XmlError),
    /// Every attempt failed transiently; `last` is the final failure.
    Exhausted { attempts: u32, last: String },
}

impl RetryError {
    /// Maps exhaustion to a caller-chosen [`XmlError`]; fatal errors pass
    /// through unchanged.
    pub fn into_xml_error(self, on_exhausted: impl FnOnce(u32, String) -> XmlError) -> XmlError {
        match self {
            RetryError::Fatal(e) => e,
            RetryError::Exhausted { attempts, last } => on_exhausted(attempts, last),
        }
    }
}

/// Retries `op` under `policy`, evaluating the `site` failpoint before
/// each attempt and sleeping a governed, jittered backoff between
/// attempts. The closure receives the 0-based attempt index so callers
/// can rewind to a known offset after a partial write.
pub fn retry_transient<T>(
    site: &str,
    gov: &Governor,
    policy: &RetryPolicy,
    mut op: impl FnMut(u32) -> std::io::Result<T>,
) -> Result<T, RetryError> {
    let attempts = policy.attempts.max(1);
    let mut last = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            metrics().record_transient_retry();
            if site.starts_with("spill::") {
                metrics().record_spill_io_retry();
            }
            governed_sleep(gov, policy.backoff(site, attempt)).map_err(RetryError::Fatal)?;
        }
        match failpoint::check(site) {
            Ok(()) => {}
            Err(e) if e.code == failpoint::ERR_INJECTED => {
                last = e.message;
                continue;
            }
            Err(e) => return Err(RetryError::Fatal(e)),
        }
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) => last = e.to_string(),
        }
    }
    Err(RetryError::Exhausted { attempts, last })
}

/// Sleeps `d` without overshooting the governor's deadline: the sleep is
/// trimmed to the remaining deadline and the clock/cancel flag is checked
/// on both sides, so a deadline that expires mid-backoff surfaces as
/// `XQRG0001` instead of buying the operation a free extra attempt.
pub fn governed_sleep(gov: &Governor, d: Duration) -> crate::Result<()> {
    gov.check_time()?;
    let d = match gov.remaining_deadline() {
        Some(remaining) => d.min(remaining),
        None => d,
    };
    if !d.is_zero() {
        std::thread::sleep(d);
    }
    gov.check_time()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over bytes: the workspace's one non-cryptographic byte hash
/// (retry jitter here; canonical plan hashes and plan-cache text keys in
/// `xqr-core::canon`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::{CancellationToken, Limits, ERR_CANCELLED, ERR_DEADLINE};

    fn fast_policy() -> RetryPolicy {
        RetryPolicy::default()
            .with_base(Duration::from_micros(10))
            .with_cap(Duration::from_micros(50))
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let gov = Governor::unlimited();
        let mut failures = 2;
        let v = retry_transient("retry_test::transient", &gov, &fast_policy(), |_| {
            if failures > 0 {
                failures -= 1;
                Err(std::io::Error::other("flaky"))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn exhaustion_reports_last_error_and_attempts() {
        let gov = Governor::unlimited();
        let err = retry_transient::<()>("retry_test::dead", &gov, &fast_policy(), |_| {
            Err(std::io::Error::other("disk on fire"))
        })
        .unwrap_err();
        match err {
            RetryError::Exhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(last.contains("disk on fire"));
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn retries_honor_remaining_deadline() {
        // A 1 ms deadline must bound the whole retry loop even though the
        // nominal backoff schedule (20 + 40 ms) far exceeds it.
        let gov = Governor::new(
            &Limits::default().with_deadline(Duration::from_millis(1)),
            CancellationToken::new(),
        );
        let policy = RetryPolicy::default()
            .with_attempts(3)
            .with_base(Duration::from_millis(20))
            .with_cap(Duration::from_millis(40));
        let t0 = std::time::Instant::now();
        let err = retry_transient::<()>("retry_test::deadline", &gov, &policy, |_| {
            Err(std::io::Error::other("still down"))
        })
        .unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_millis(30),
            "sleep was not trimmed to the deadline: {:?}",
            t0.elapsed()
        );
        match err {
            RetryError::Fatal(e) => assert_eq!(e.code, ERR_DEADLINE),
            other => panic!("expected a fatal deadline trip, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_aborts_the_backoff() {
        let token = CancellationToken::new();
        let gov = Governor::new(&Limits::default(), token.clone());
        token.cancel();
        let err = retry_transient::<()>("retry_test::cancel", &gov, &fast_policy(), |_| {
            Err(std::io::Error::other("down"))
        })
        .unwrap_err();
        match err {
            RetryError::Fatal(e) => assert_eq!(e.code, ERR_CANCELLED),
            other => panic!("expected a fatal cancellation, got {other:?}"),
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default()
            .with_base(Duration::from_millis(4))
            .with_cap(Duration::from_millis(16))
            .with_jitter_pct(50);
        let a = p.backoff("site::x", 1);
        let b = p.backoff("site::x", 1);
        assert_eq!(a, b, "same (seed, site, attempt) must jitter identically");
        assert!(a >= Duration::from_millis(4) && a <= Duration::from_millis(6));
        // Different sites decorrelate (overwhelmingly likely to differ).
        let c = p.backoff("site::y", 1);
        assert!(a != c || p.backoff("site::y", 2) != p.backoff("site::x", 2));
        // Capping applies before jitter: attempt 10 raw backoff is cap.
        let far = p.backoff("site::x", 10);
        assert!(far <= Duration::from_millis(24));
    }

    #[test]
    fn retries_are_metered() {
        // Counters are process-global and tests run in parallel: assert a
        // lower-bound delta only (see metrics.rs module docs).
        let before = metrics().snapshot().transient_retries;
        let gov = Governor::unlimited();
        let _ = retry_transient::<()>("retry_test::metered", &gov, &fast_policy(), |_| {
            Err(std::io::Error::other("down"))
        });
        assert!(metrics().snapshot().transient_retries >= before + 2);
    }
}
