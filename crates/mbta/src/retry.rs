//! Deterministic bounded-retry/backoff policy, shared between the
//! in-process campaign engine ([`crate::ExecEngine::with_retry`]) and any process-level
//! supervisor built on it (the `dse` shard supervisor).
//!
//! Three pieces, all pure functions of their inputs so retry schedules
//! replay bit-identically:
//!
//! * **classification** ([`classify`]): which [`JobFailure`]s a bounded
//!   retry may recover, and whether the retry should *re-measure*
//!   (attempt folded into the seed — a fresh measurement after a
//!   corrupted one) or *repeat* the identical job (an environmental
//!   failure such as a watchdog expiry on a loaded host: the
//!   measurement itself was never wrong, so re-running it unchanged
//!   keeps the campaign's output byte-identical to a run that never
//!   timed out);
//! * **seed folding** ([`fold_seed`]): the SplitMix64 attempt fold used
//!   since PR 3 for re-measurements;
//! * **backoff** ([`Backoff`]): capped exponential delays with
//!   SplitMix64 equal-jitter, keyed by `(seed, key, attempt)` — what a
//!   supervisor sleeps between restarts of a crashed worker. The
//!   in-process campaign retries immediately (a transient fault there
//!   is an injected counter read, not a crashed process), so only the
//!   process level consumes delays.

use crate::exec::JobFailure;
use tc27x_sim::rng::SplitMix64;

/// Bounded retry policy for transient failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job, the first included (≥ 1). Only failures
    /// classified [`FailureClass::Transient`] consume further attempts.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

/// How a bounded retry loop should treat one failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// Retryable. `reseed` says whether the retry folds the attempt
    /// into the job seed (a fresh measurement) or repeats the job
    /// verbatim (an environmental expiry; the result, once obtained,
    /// must equal the undisturbed one).
    Transient {
        /// Fold the attempt into the seed before re-running.
        reseed: bool,
    },
    /// Never retry: deterministic errors reproduce, panics indicate
    /// harness bugs.
    Permanent,
}

impl FailureClass {
    /// Whether a bounded retry may recover this failure.
    pub fn is_transient(&self) -> bool {
        matches!(self, FailureClass::Transient { .. })
    }
}

/// Classifies a [`JobFailure`] for the retry loop.
///
/// * [`JobFailure::Transient`] — retry with a reseeded measurement
///   (the PR-3 behaviour: a dropped counter read invalidates the
///   sample, so re-measure);
/// * [`JobFailure::TimedOut`] — retry the *identical* job: the
///   watchdog bounds host time, not simulated work, so an expiry says
///   nothing about the measurement. Re-running unchanged is what makes
///   "timed out on attempt 1, succeeded on attempt 2" byte-identical
///   to a run that never timed out;
/// * everything else — permanent.
pub fn classify(failure: &JobFailure) -> FailureClass {
    match failure {
        JobFailure::Transient { .. } => FailureClass::Transient { reseed: true },
        JobFailure::TimedOut { .. } => FailureClass::Transient { reseed: false },
        _ => FailureClass::Permanent,
    }
}

/// Folds a retry attempt into a task seed through SplitMix64 — the
/// deterministic "fresh re-measurement" transform. Attempt 0 is never
/// folded by callers (the original job runs as submitted).
pub fn fold_seed(seed: u64, attempt: u32) -> u64 {
    SplitMix64::new(seed ^ u64::from(attempt)).next_u64()
}

/// Capped exponential backoff with deterministic equal-jitter.
///
/// `delay_millis(key, attempt)` is a pure function: the raw delay
/// doubles per attempt from `base_millis` up to `cap_millis`, and a
/// SplitMix64 stream seeded from `(seed, key, attempt)` draws the
/// jittered delay uniformly from `[raw/2, raw]`. Equal jitter keeps a
/// restart storm spread out while guaranteeing at least half the
/// nominal delay; determinism means a resumed supervisor reproduces
/// the exact schedule the crashed one was executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backoff {
    /// First-retry delay in milliseconds. 0 disables delays entirely.
    pub base_millis: u64,
    /// Upper bound on any single delay, in milliseconds.
    pub cap_millis: u64,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            base_millis: 50,
            cap_millis: 2_000,
            seed: 0,
        }
    }
}

impl Backoff {
    /// The delay before retry number `attempt` (1 = first retry) of the
    /// work item identified by `key`, in milliseconds.
    pub fn delay_millis(&self, key: u64, attempt: u32) -> u64 {
        if self.base_millis == 0 {
            return 0;
        }
        let doublings = attempt.saturating_sub(1).min(32);
        let raw = self
            .base_millis
            .saturating_mul(1u64 << doublings)
            .min(self.cap_millis.max(self.base_millis));
        let mut rng = SplitMix64::new(
            self.seed ^ key ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let half = raw / 2;
        (half + rng.below(raw - half + 1)).min(self.cap_millis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc27x_sim::SimError;

    #[test]
    fn classification_by_failure_kind() {
        assert_eq!(
            classify(&JobFailure::Transient { detail: "x".into() }),
            FailureClass::Transient { reseed: true }
        );
        assert_eq!(
            classify(&JobFailure::TimedOut { millis: 5 }),
            FailureClass::Transient { reseed: false }
        );
        assert_eq!(
            classify(&JobFailure::Panic("boom".into())),
            FailureClass::Permanent
        );
        assert_eq!(
            classify(&JobFailure::Sim(SimError::NothingLoaded)),
            FailureClass::Permanent
        );
        assert!(FailureClass::Transient { reseed: false }.is_transient());
        assert!(!FailureClass::Permanent.is_transient());
    }

    #[test]
    fn backoff_schedule_is_deterministic() {
        let b = Backoff {
            base_millis: 50,
            cap_millis: 2_000,
            seed: 42,
        };
        let schedule: Vec<u64> = (1..=8).map(|a| b.delay_millis(0xfeed, a)).collect();
        let again: Vec<u64> = (1..=8).map(|a| b.delay_millis(0xfeed, a)).collect();
        assert_eq!(schedule, again, "same inputs, same schedule");
        // A different key draws a different jitter stream.
        let other: Vec<u64> = (1..=8).map(|a| b.delay_millis(0xbeef, a)).collect();
        assert_ne!(schedule, other);
        // A different policy seed likewise.
        let reseeded = Backoff { seed: 43, ..b };
        let third: Vec<u64> = (1..=8).map(|a| reseeded.delay_millis(0xfeed, a)).collect();
        assert_ne!(schedule, third);
    }

    #[test]
    fn backoff_respects_base_cap_and_jitter_bounds() {
        let b = Backoff {
            base_millis: 100,
            cap_millis: 1_000,
            seed: 7,
        };
        for key in [0u64, 1, 0xdead_beef] {
            for attempt in 1..=20 {
                let d = b.delay_millis(key, attempt);
                let raw = 100u64
                    .saturating_mul(1 << u64::from(attempt - 1).min(32))
                    .min(1_000);
                assert!(
                    d >= raw / 2,
                    "at least half the nominal delay: {d} < {raw}/2"
                );
                assert!(d <= 1_000, "cap is absolute: {d}");
            }
        }
        // Attempt growth saturates at the cap, never overflows.
        assert!(b.delay_millis(1, u32::MAX) <= 1_000);
        // base 0 disables delays.
        let off = Backoff {
            base_millis: 0,
            ..Backoff::default()
        };
        assert_eq!(off.delay_millis(9, 3), 0);
    }

    #[test]
    fn fold_seed_matches_the_campaign_discipline() {
        // The documented transform, stable across refactors: journals
        // written by older campaigns must replay under it.
        assert_eq!(fold_seed(42, 1), SplitMix64::new(42 ^ 1).next_u64());
        assert_ne!(fold_seed(42, 1), fold_seed(42, 2));
        assert_ne!(fold_seed(42, 1), fold_seed(43, 1));
    }
}
