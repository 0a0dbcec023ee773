//! The trial watchdog the campaign runtime runs every trial under.
//!
//! [`supervise`] enforces per-trial wall-clock budgets with cooperative
//! cancellation, retries transient failures with exponential backoff
//! plus deterministic jitter, and after the attempt budget is exhausted
//! reports the trial as quarantined instead of aborting the campaign.
//! Budgeted attempts run on a *dedicated* thread: a hung attempt that
//! gets abandoned must not occupy a shared worker and starve the
//! retries.

use crossbeam::channel::unbounded;
use rds_core::{Error, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cooperative cancellation flag handed to supervised trial bodies.
///
/// A well-behaved trial polls [`CancelToken::is_cancelled`] at convenient
/// points (e.g. between simulation repetitions) and returns early; the
/// watchdog sets the flag when the wall-clock budget expires so an
/// abandoned attempt winds down instead of running forever.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// `true` once cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Retry/budget policy for one supervised trial.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogPolicy {
    /// Wall-clock budget per attempt; `None` disables the timeout (the
    /// attempt runs inline on the caller's thread).
    pub budget: Option<Duration>,
    /// Total attempts before the trial is quarantined (at least 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a
    /// deterministic factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy {
            budget: None,
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter: 0.2,
        }
    }
}

impl WatchdogPolicy {
    /// Policy with a per-attempt budget and default retry parameters.
    pub fn with_budget(budget: Duration) -> Self {
        WatchdogPolicy {
            budget: Some(budget),
            ..WatchdogPolicy::default()
        }
    }

    /// The backoff to sleep before attempt `attempt + 1` (1-based failed
    /// attempt number). Exponential with cap, jittered deterministically
    /// from `seed` so campaigns stay reproducible.
    pub fn backoff_delay(&self, attempt: u32, seed: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let base = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter == 0.0 {
            return base;
        }
        // SplitMix64 on (seed, attempt) → uniform factor in [1-j, 1+j].
        let mut z = seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let factor = 1.0 - jitter + 2.0 * jitter * unit;
        Duration::from_secs_f64(base.as_secs_f64() * factor)
    }
}

/// Outcome of a supervised trial.
#[derive(Debug, Clone, PartialEq)]
pub enum Supervised<T> {
    /// The trial succeeded on attempt number `attempts` (1-based).
    Done {
        /// The trial's value.
        value: T,
        /// Attempts consumed, including the successful one.
        attempts: u32,
    },
    /// Every attempt failed or timed out; the trial is poisoned and the
    /// campaign should record it and move on.
    Quarantined {
        /// Attempts consumed.
        attempts: u32,
        /// The last attempt's error.
        error: Error,
    },
}

/// Runs `job` under the watchdog policy: per-attempt wall-clock budget
/// with cancellation, bounded retry with exponential backoff and
/// deterministic jitter, quarantine after `max_attempts` failures.
///
/// `job` receives the attempt's [`CancelToken`]; budgeted attempts run on
/// a dedicated thread and are *abandoned* (cancelled, detached) when the
/// budget expires — the watchdog does not wait for a hung attempt to
/// acknowledge. Both `Err` returns and panics count as failed attempts
/// (a panicking trial degrades to a quarantine entry, never aborts the
/// campaign); timeouts surface as [`Error::TrialTimeout`].
pub fn supervise<T, F>(policy: &WatchdogPolicy, seed: u64, job: F) -> Supervised<T>
where
    T: Send + 'static,
    F: Fn(&CancelToken) -> Result<T> + Send + Sync + 'static,
{
    let obs = rds_obs::enabled().then(|| {
        let g = rds_obs::global();
        (
            g.histogram("trial.latency"),
            g.counter("watchdog.retries"),
            g.counter("watchdog.quarantines"),
        )
    });
    let _span = rds_obs::span("watchdog.trial");
    let started = std::time::Instant::now();

    let job = Arc::new(job);
    let max_attempts = policy.max_attempts.max(1);
    let result = (|| {
        let mut last = Error::InvalidParameter {
            what: "trial never ran",
        };
        for attempt in 1..=max_attempts {
            let token = CancelToken::new();
            match run_attempt(policy.budget, &job, &token) {
                Ok(value) => {
                    return Supervised::Done {
                        value,
                        attempts: attempt,
                    }
                }
                Err(e) => {
                    last = e;
                    if attempt < max_attempts {
                        std::thread::sleep(policy.backoff_delay(attempt, seed));
                    }
                }
            }
        }
        Supervised::Quarantined {
            attempts: max_attempts,
            error: last,
        }
    })();

    if let Some((latency, retries, quarantines)) = &obs {
        // Trial wall-clock includes backoff sleeps: it is the latency the
        // campaign actually pays per (policy, trial) cell.
        latency.record(started.elapsed());
        let attempts = match &result {
            Supervised::Done { attempts, .. } | Supervised::Quarantined { attempts, .. } => {
                *attempts
            }
        };
        retries.add(u64::from(attempts.saturating_sub(1)));
        if matches!(result, Supervised::Quarantined { .. }) {
            quarantines.inc();
        }
    }
    result
}

fn run_attempt<T, F>(budget: Option<Duration>, job: &Arc<F>, token: &CancelToken) -> Result<T>
where
    T: Send + 'static,
    F: Fn(&CancelToken) -> Result<T> + Send + Sync + 'static,
{
    let run = |job: &F, token: &CancelToken| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(token))).unwrap_or(Err(
            Error::InvalidParameter {
                what: "trial panicked",
            },
        ))
    };
    match budget {
        None => run(job, token),
        Some(budget) => {
            let (tx, rx) = unbounded();
            let job = Arc::clone(job);
            let t = token.clone();
            let spawned = std::thread::Builder::new()
                .name("rds-trial".into())
                .spawn(move || {
                    let _ = tx.send(run(&job, &t));
                });
            if spawned.is_err() {
                return Err(Error::ResourceLimit {
                    what: "could not spawn trial thread",
                });
            }
            match rx.recv_timeout(budget) {
                Ok(result) => result,
                Err(_) => {
                    // Abandon the attempt: flag cancellation and move on.
                    // The detached thread winds down when (if) the trial
                    // body polls the token.
                    token.cancel();
                    Err(Error::TrialTimeout {
                        millis: budget.as_millis() as u64,
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn supervise_succeeds_first_try_without_budget() {
        let policy = WatchdogPolicy::default();
        match supervise(&policy, 1, |_t| Ok(42u32)) {
            Supervised::Done { value, attempts } => {
                assert_eq!(value, 42);
                assert_eq!(attempts, 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn supervise_retries_transient_failures() {
        let policy = WatchdogPolicy {
            base_backoff: std::time::Duration::from_millis(1),
            ..WatchdogPolicy::default()
        };
        let tries = Arc::new(AtomicUsize::new(0));
        let t = tries.clone();
        let result = supervise(&policy, 7, move |_tok| {
            if t.fetch_add(1, Ordering::SeqCst) < 1 {
                Err(rds_core::Error::InvalidParameter {
                    what: "transient glitch",
                })
            } else {
                Ok("ok")
            }
        });
        assert_eq!(
            result,
            Supervised::Done {
                value: "ok",
                attempts: 2
            }
        );
        assert_eq!(tries.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn supervise_quarantines_after_max_attempts() {
        let policy = WatchdogPolicy {
            max_attempts: 3,
            base_backoff: std::time::Duration::from_millis(1),
            ..WatchdogPolicy::default()
        };
        let tries = Arc::new(AtomicUsize::new(0));
        let t = tries.clone();
        let result: Supervised<()> = supervise(&policy, 7, move |_tok| {
            t.fetch_add(1, Ordering::SeqCst);
            Err(rds_core::Error::InvalidParameter { what: "always bad" })
        });
        match result {
            Supervised::Quarantined { attempts, error } => {
                assert_eq!(attempts, 3);
                assert!(error.to_string().contains("always bad"));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn supervise_cancels_hung_attempts_and_quarantines() {
        // The hung trial honors cancellation, so the abandoned attempts
        // wind down; the watchdog reports TrialTimeout after 2 attempts.
        let policy = WatchdogPolicy {
            budget: Some(std::time::Duration::from_millis(20)),
            max_attempts: 2,
            base_backoff: std::time::Duration::from_millis(1),
            ..WatchdogPolicy::default()
        };
        let cancelled = Arc::new(AtomicUsize::new(0));
        let c = cancelled.clone();
        let result: Supervised<()> = supervise(&policy, 3, move |tok| {
            while !tok.is_cancelled() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            c.fetch_add(1, Ordering::SeqCst);
            Err(rds_core::Error::InvalidParameter { what: "cancelled" })
        });
        match result {
            Supervised::Quarantined { attempts, error } => {
                assert_eq!(attempts, 2);
                assert_eq!(error, rds_core::Error::TrialTimeout { millis: 20 });
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Give the abandoned threads a beat to observe the token.
        for _ in 0..100 {
            if cancelled.load(Ordering::SeqCst) == 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(cancelled.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn supervise_turns_panics_into_quarantine() {
        let policy = WatchdogPolicy {
            max_attempts: 2,
            base_backoff: std::time::Duration::from_millis(1),
            ..WatchdogPolicy::default()
        };
        let result: Supervised<()> = supervise(&policy, 1, |_t| panic!("boom"));
        assert!(matches!(
            result,
            Supervised::Quarantined { attempts: 2, .. }
        ));
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let policy = WatchdogPolicy {
            base_backoff: std::time::Duration::from_millis(100),
            max_backoff: std::time::Duration::from_millis(500),
            jitter: 0.2,
            ..WatchdogPolicy::default()
        };
        let d1 = policy.backoff_delay(1, 42);
        let d2 = policy.backoff_delay(2, 42);
        let d4 = policy.backoff_delay(4, 42);
        // Within jitter bounds of 100ms / 200ms / capped 500ms.
        assert!(d1 >= Duration::from_millis(80) && d1 <= Duration::from_millis(120));
        assert!(d2 >= Duration::from_millis(160) && d2 <= Duration::from_millis(240));
        assert!(d4 >= Duration::from_millis(400) && d4 <= Duration::from_millis(600));
        // Deterministic for a fixed (seed, attempt); varies across seeds.
        assert_eq!(d1, policy.backoff_delay(1, 42));
        assert_ne!(policy.backoff_delay(1, 1), policy.backoff_delay(1, 2));
        // No jitter → exact exponential with cap.
        let exact = WatchdogPolicy {
            jitter: 0.0,
            ..policy
        };
        assert_eq!(exact.backoff_delay(1, 9), Duration::from_millis(100));
        assert_eq!(exact.backoff_delay(2, 9), Duration::from_millis(200));
        assert_eq!(exact.backoff_delay(9, 9), Duration::from_millis(500));
    }
}
