//! Cooperative wall-clock budgets and cancellation for the checking stack.
//!
//! The paper's evaluation is defined against a hard 600 s timeout, but a
//! timeout is only as sound as its most oblivious loop: a synthesizer that
//! polls the clock between *candidates* can overrun its budget arbitrarily
//! inside E-term generation or a single solver call. A [`Budget`] is the
//! repo-wide answer: one small value threaded from the entry point
//! (`Synthesizer::synthesize`, the evaluation harness, the lint pass) down
//! through skeleton generation, E-term enumeration, the Re²
//! checker, the CEGIS loop and the DPLL(T) search, each of which calls
//! [`Budget::is_exceeded`] at the top of its hot loop and unwinds with a
//! *cancelled* result when the answer is yes.
//!
//! Two independent triggers end a budget:
//!
//! * a **deadline** (`Instant`), fixed when the budget is created — this is
//!   what `--timeout` compiles to; and
//! * any number of **[`CancelToken`]s** (shared `AtomicBool`s) — this is how
//!   a caller stops a search mid-flight at a point of its choosing rather
//!   than at a clock reading: from another thread, or from inside the
//!   search itself (a test's theory oracle that cancels on its first call
//!   stops DPLL(T) at a fixed step).
//!
//! Budgets are cheap to clone (an optional `Instant` plus the `Vec` of
//! tokens, one `Arc` each) and cheap to poll (atomic loads plus one
//! monotonic clock read), so checkpoints can sit inside tight enumeration
//! loops. A checkpoint is *cooperative*: nothing is preempted, but every
//! loop in the stack observes the budget within one bounded unit of work,
//! so a hit deadline surfaces as a clean `timed_out` outcome within one
//! checkpoint interval instead of "whenever the current phase happens to
//! finish".
//!
//! Cancellation composes by *union*: [`Budget::attach`] adds a token to the
//! set, and the budget is exceeded as soon as any of them trips.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag. Cloning shares the flag: cancelling any clone
/// cancels them all.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trip the flag. Idempotent; every [`Budget`] holding this token (or a
    /// clone of it) reports exceeded from now on.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the flag has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A wall-clock budget: an optional deadline plus a set of cancellation
/// tokens. Exceeded as soon as the deadline passes *or* any token trips.
///
/// The default budget is [`unlimited`](Budget::unlimited): no deadline, no
/// tokens, [`is_exceeded`](Budget::is_exceeded) always `false`. This is what
/// every layer assumes when no caller threads a budget through, so adding a
/// checkpoint never changes un-budgeted behavior.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    tokens: Vec<CancelToken>,
}

impl Budget {
    /// A budget that never expires and cannot be cancelled.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget expiring `timeout` from now. Durations too large to
    /// represent as a deadline (e.g. `Duration::MAX` used as "no limit")
    /// saturate to no deadline at all.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget {
            deadline: Instant::now().checked_add(timeout),
            ..Budget::default()
        }
    }

    /// This budget, additionally cancelled whenever `token` is.
    #[must_use]
    pub fn attach(mut self, token: CancelToken) -> Budget {
        self.tokens.push(token);
        self
    }

    /// Whether the deadline has passed or any attached token was cancelled.
    /// Cheap enough for tight loops: the tokens are atomic loads and the
    /// deadline is one monotonic clock read (skipped when there is none).
    pub fn is_exceeded(&self) -> bool {
        self.tokens.iter().any(CancelToken::is_cancelled)
            || self
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// The deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left until the deadline (`None` = no deadline; zero once
    /// passed). Cancellation tokens do not shorten the reported remainder —
    /// they flip [`is_exceeded`](Budget::is_exceeded) instead.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|deadline| deadline.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budgets_never_expire() {
        let budget = Budget::unlimited();
        assert!(!budget.is_exceeded());
        assert!(budget.deadline().is_none());
        assert!(budget.remaining().is_none());
        // Absurdly large timeouts saturate to "no deadline" instead of
        // panicking on Instant overflow.
        let huge = Budget::with_timeout(Duration::from_secs(u64::MAX));
        assert!(!huge.is_exceeded());
    }

    #[test]
    fn deadlines_bind() {
        let expired = Budget::with_timeout(Duration::ZERO);
        assert!(expired.is_exceeded());
        assert_eq!(expired.remaining(), Some(Duration::ZERO));
        let generous = Budget::with_timeout(Duration::from_secs(3600));
        assert!(!generous.is_exceeded());
        assert!(generous.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn tokens_cancel_every_clone_and_attachment() {
        let token = CancelToken::new();
        let budget = Budget::unlimited().attach(token.clone());
        let sibling = budget.clone();
        assert!(!budget.is_exceeded());
        token.clone().cancel();
        assert!(token.is_cancelled());
        assert!(budget.is_exceeded());
        assert!(sibling.is_exceeded());
    }
}
