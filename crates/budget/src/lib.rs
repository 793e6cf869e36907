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
//! Budgets are cheap to clone (an `Instant` plus a couple of `Arc`s) and
//! cheap to poll (atomic loads plus one monotonic clock read), so
//! checkpoints can sit inside tight enumeration loops. A checkpoint is
//! *cooperative*: nothing is preempted, but every loop in the stack observes
//! the budget within one bounded unit of work, so a hit deadline surfaces as
//! a clean `timed_out` outcome within one checkpoint interval instead of
//! "whenever the current phase happens to finish".
//!
//! Cancellation composes by *union*: [`Budget::attach`] adds a token to the
//! set, and the budget is exceeded as soon as any of them trips.
//!
//! # Progress observation
//!
//! The same checkpoints that make cancellation prompt make *liveness
//! reporting* cheap: a [`ProgressSink`] attached via
//! [`Budget::with_progress`] piggybacks on [`Budget::is_exceeded`], firing
//! a callback at most once per configured interval no matter how hot the
//! loop calling the checkpoint is (the throttle is an atomic
//! compare-exchange, so concurrent clones never double-fire an interval),
//! and no layer of the synthesis stack knows it is being watched. A sink's
//! emissions are what the `resyn-wire/2` `progress` frame
//! (`resyn_wire::proto::Progress`) describes. No entry point attaches a
//! sink: both stay until the streaming protocol is removed (ROADMAP.md).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// A throttled progress observer, shared by every clone of the [`Budget`]
/// it is attached to.
///
/// Each call to [`tick`](ProgressSink::tick) (which
/// [`Budget::is_exceeded`] makes on every checkpoint) checks whether a full
/// interval has elapsed since the last emission; if so, exactly one caller
/// wins an atomic compare-exchange and fires the callback with a fresh
/// sequence number (starting at 1) and the elapsed time since the sink was
/// created. Sub-interval work therefore emits nothing at all, and a
/// thousand threads hammering checkpoints still produce one emission per
/// interval.
#[derive(Clone)]
pub struct ProgressSink {
    inner: Arc<SinkInner>,
}

struct SinkInner {
    start: Instant,
    interval_micros: u64,
    /// Microseconds-since-`start` of the last emission (0 = none yet, which
    /// also means the *first* emission waits a full interval — fast jobs
    /// never emit).
    last_emit: AtomicU64,
    seq: AtomicU64,
    emit: Box<dyn Fn(u64, Duration) + Send + Sync>,
}

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressSink")
            .field("interval_micros", &self.inner.interval_micros)
            .field("emitted", &self.emitted())
            .finish_non_exhaustive()
    }
}

impl ProgressSink {
    /// A sink firing `emit(seq, elapsed)` at most once per `interval`.
    pub fn new(
        interval: Duration,
        emit: impl Fn(u64, Duration) + Send + Sync + 'static,
    ) -> ProgressSink {
        ProgressSink {
            inner: Arc::new(SinkInner {
                start: Instant::now(),
                interval_micros: interval.as_micros().min(u128::from(u64::MAX)) as u64,
                last_emit: AtomicU64::new(0),
                seq: AtomicU64::new(0),
                emit: Box::new(emit),
            }),
        }
    }

    /// Observe a checkpoint; fires the callback iff an interval has passed
    /// since the last emission and this caller wins the race to claim it.
    pub fn tick(&self) {
        let elapsed = self.inner.start.elapsed();
        let now = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let last = self.inner.last_emit.load(Ordering::Relaxed);
        if now.saturating_sub(last) < self.inner.interval_micros {
            return;
        }
        if self
            .inner
            .last_emit
            .compare_exchange(last, now.max(1), Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed) + 1;
            (self.inner.emit)(seq, elapsed);
        }
    }

    /// How many times the callback has fired.
    pub fn emitted(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
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
    /// Observes every checkpoint; shared (and throttled) across clones.
    progress: Option<ProgressSink>,
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

    /// This budget, additionally reporting liveness through `sink` at every
    /// checkpoint (throttled by the sink's interval). Clones share the
    /// sink, so every clone of one job's budget feeds one progress stream.
    #[must_use]
    pub fn with_progress(mut self, sink: ProgressSink) -> Budget {
        self.progress = Some(sink);
        self
    }

    /// Whether the deadline has passed or any attached token was cancelled.
    /// Cheap enough for tight loops: the tokens are atomic loads and the
    /// deadline is one monotonic clock read (skipped when there is none).
    pub fn is_exceeded(&self) -> bool {
        if self.tokens.iter().any(CancelToken::is_cancelled) {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        // Only live checkpoints report progress: once the budget is
        // exceeded the stack is unwinding, and the final verdict frame is
        // the next thing the observer should see.
        if let Some(progress) = &self.progress {
            progress.tick();
        }
        false
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

    #[test]
    fn progress_sinks_throttle_and_sequence_emissions() {
        use std::sync::Mutex;
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let seen = Arc::clone(&seen);
            ProgressSink::new(Duration::ZERO, move |seq, elapsed| {
                seen.lock().unwrap().push((seq, elapsed));
            })
        };
        let budget = Budget::unlimited().with_progress(sink.clone());
        // A zero interval emits on every live checkpoint, in sequence.
        assert!(!budget.is_exceeded());
        assert!(!budget.clone().is_exceeded());
        let emissions = seen.lock().unwrap().clone();
        assert_eq!(
            emissions.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
            vec![1, 2],
            "clones share one sequence"
        );
        assert!(emissions[1].1 >= emissions[0].1, "elapsed is monotonic");
        assert_eq!(sink.emitted(), 2);

        // A long interval suppresses emissions entirely for fast work.
        let quiet = ProgressSink::new(Duration::from_secs(3600), |_, _| {
            panic!("a fresh hour-interval sink must not emit")
        });
        let budget = Budget::unlimited().with_progress(quiet.clone());
        for _ in 0..100 {
            assert!(!budget.is_exceeded());
        }
        assert_eq!(quiet.emitted(), 0);
    }

    #[test]
    fn exceeded_budgets_stop_reporting_progress() {
        let count = Arc::new(AtomicU64::new(0));
        let sink = {
            let count = Arc::clone(&count);
            ProgressSink::new(Duration::ZERO, move |_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            })
        };
        let token = CancelToken::new();
        let budget = Budget::unlimited()
            .attach(token.clone())
            .with_progress(sink);
        assert!(!budget.is_exceeded());
        assert_eq!(count.load(Ordering::Relaxed), 1);
        token.cancel();
        assert!(budget.is_exceeded());
        assert!(budget.is_exceeded());
        assert_eq!(
            count.load(Ordering::Relaxed),
            1,
            "no heartbeats while unwinding"
        );
    }

    #[test]
    fn concurrent_checkpoints_never_double_claim_an_interval() {
        // Many threads hammering the same sink: the total emission count is
        // bounded by elapsed-time / interval (plus one), never by thread
        // count — the CAS admits one winner per interval.
        let count = Arc::new(AtomicU64::new(0));
        let sink = {
            let count = Arc::clone(&count);
            ProgressSink::new(Duration::from_millis(20), move |_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            })
        };
        let budget = Budget::unlimited().with_progress(sink);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let budget = budget.clone();
                scope.spawn(move || {
                    while start.elapsed() < Duration::from_millis(100) {
                        assert!(!budget.is_exceeded());
                    }
                });
            }
        });
        let emitted = count.load(Ordering::Relaxed);
        // 100 ms / 20 ms = 5 intervals; generous slack for scheduler jitter
        // (the bound that matters is "far fewer than checkpoint calls").
        assert!(
            (1..=10).contains(&emitted),
            "expected interval-bounded emissions, got {emitted}"
        );
    }
}
