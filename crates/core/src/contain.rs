//! Fault containment metadata: retry policies and [`ContainmentEvent`]s.
//!
//! PR 1 gave the pipeline *structured* failure handling — verifier
//! rejections and budget trips degrade through the fallback chain and are
//! recorded as [`crate::DegradationEvent`]s. This module adds the
//! vocabulary for the *unstructured* failures that layer cannot see:
//! panics and wall-clock deadline trips, contained at the harness-cell
//! level by the evaluation runner (`treegion-eval`) and at the region
//! level by the robust chain behind [`crate::Pipeline::run_set`].
//!
//! A [`ContainmentEvent`] records one contained incident — which scope
//! (harness cell or region) failed, on which attempt, why
//! ([`ContainmentCause`]), and what the containment layer did about it
//! ([`ContainmentAction`]: retried with backoff, recovered on a later
//! attempt, or quarantined after exhausting the [`RetryPolicy`]).
//! Containment events ride alongside the existing degradation events in
//! eval reports and map to exit code 3 in the CLI (see DESIGN.md §9).

use std::fmt;

/// How many times a failing unit of work is attempted, and how the delay
/// between attempts grows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per unit (first try included). Minimum 1.
    pub max_attempts: u32,
    /// Backoff before retry `k` (the second attempt is retry 1) is
    /// `base_backoff_ms << (k - 1)` milliseconds, capped at
    /// [`RetryPolicy::MAX_BACKOFF_MS`].
    pub base_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 10,
        }
    }
}

impl RetryPolicy {
    /// Upper bound on a single backoff sleep, whatever the exponent says.
    pub const MAX_BACKOFF_MS: u64 = 5_000;

    /// A policy that never retries (one attempt, straight to quarantine).
    pub const NO_RETRY: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        base_backoff_ms: 0,
    };

    /// The exponential backoff, in milliseconds, to sleep before the
    /// given retry (`retry >= 1`; retry 1 is the second attempt).
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        let shift = retry.saturating_sub(1).min(16);
        self.base_backoff_ms
            .saturating_mul(1u64 << shift)
            .min(Self::MAX_BACKOFF_MS)
    }

    /// `max_attempts`, clamped to at least one.
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }
}

/// Why one attempt of a contained unit of work failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContainmentCause {
    /// The attempt panicked; the unwind was caught.
    Panic {
        /// Stringified panic payload.
        payload: String,
    },
    /// The attempt exceeded its wall-clock deadline.
    Deadline {
        /// The configured deadline in milliseconds.
        budget_ms: u64,
    },
    /// The attempt failed with a structured error (e.g. a terminal
    /// [`crate::PipelineError`] after the degradation chain exhausted).
    Failure {
        /// Rendered error message.
        message: String,
    },
}

impl ContainmentCause {
    /// Short machine-readable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ContainmentCause::Panic { .. } => "panic",
            ContainmentCause::Deadline { .. } => "deadline",
            ContainmentCause::Failure { .. } => "failure",
        }
    }

    /// The human-readable detail of the cause.
    pub fn detail(&self) -> String {
        match self {
            ContainmentCause::Panic { payload } => payload.clone(),
            ContainmentCause::Deadline { budget_ms } => {
                format!("exceeded the {budget_ms} ms deadline")
            }
            ContainmentCause::Failure { message } => message.clone(),
        }
    }
}

impl fmt::Display for ContainmentCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.label(), self.detail())
    }
}

/// What the containment layer did after one failed attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContainmentAction {
    /// The unit will be retried after the given backoff.
    Retried {
        /// Backoff slept before the next attempt, in milliseconds.
        backoff_ms: u64,
    },
    /// A later attempt of the same unit succeeded; the run is complete
    /// despite this failure.
    Recovered,
    /// Every attempt failed; the unit's input was written to the
    /// quarantine corpus and excluded from the run.
    Quarantined,
}

impl fmt::Display for ContainmentAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainmentAction::Retried { backoff_ms } => {
                write!(f, "retried after {backoff_ms} ms")
            }
            ContainmentAction::Recovered => f.write_str("recovered"),
            ContainmentAction::Quarantined => f.write_str("quarantined"),
        }
    }
}

/// One contained incident: scope, attempt number, cause, and the action
/// taken. Emitted by the evaluation runner (per harness cell) and by the
/// CLI (for region-level contained failures surfaced through
/// [`crate::DegradationEvent`]s).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContainmentEvent {
    /// What failed: a harness cell name (`"fig8@4u"`) or a region label
    /// (`"func/region#3"`).
    pub scope: String,
    /// 1-based attempt number that produced this incident.
    pub attempt: u32,
    /// Why the attempt failed.
    pub cause: ContainmentCause,
    /// What the containment layer did about it.
    pub action: ContainmentAction,
}

impl fmt::Display for ContainmentEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (attempt {}): {} -> {}",
            self.scope, self.attempt, self.cause, self.action
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 10,
        };
        assert_eq!(p.backoff_ms(1), 10);
        assert_eq!(p.backoff_ms(2), 20);
        assert_eq!(p.backoff_ms(3), 40);
        // Deep retries are capped, and huge shifts cannot overflow.
        assert_eq!(p.backoff_ms(30), RetryPolicy::MAX_BACKOFF_MS);
        assert_eq!(p.backoff_ms(u32::MAX), RetryPolicy::MAX_BACKOFF_MS);
        assert_eq!(RetryPolicy::NO_RETRY.attempts(), 1);
        assert_eq!(
            RetryPolicy {
                max_attempts: 0,
                base_backoff_ms: 1
            }
            .attempts(),
            1
        );
    }

    #[test]
    fn event_display_reads_well() {
        let e = ContainmentEvent {
            scope: "fig8@4u".into(),
            attempt: 2,
            cause: ContainmentCause::Panic {
                payload: "boom".into(),
            },
            action: ContainmentAction::Quarantined,
        };
        let s = e.to_string();
        assert!(s.contains("fig8@4u"), "{s}");
        assert!(s.contains("attempt 2"), "{s}");
        assert!(s.contains("panic: boom"), "{s}");
        assert!(s.contains("quarantined"), "{s}");
        let d = ContainmentCause::Deadline { budget_ms: 50 };
        assert_eq!(d.label(), "deadline");
        assert!(d.to_string().contains("50 ms"));
        assert_eq!(
            ContainmentAction::Retried { backoff_ms: 20 }.to_string(),
            "retried after 20 ms"
        );
    }
}
