//! The bounded session scheduler: a queue of synthesis jobs drained by a
//! fixed pool of worker threads.
//!
//! This is the server-side reincarnation of the evaluation harness's worker
//! pool (`resyn_eval::parallel`): the same `std::thread::scope` + shared
//! work-source shape, the same per-job `catch_unwind` isolation, but fed by
//! a live queue instead of a fixed benchmark slice — so it additionally
//! owes callers **backpressure**: [`Scheduler::submit_with`] refuses work
//! beyond the configured queue depth instead of buffering unboundedly, and
//! the refusal is turned into an `overloaded` response at the wire.
//!
//! The scheduler is generic over the job runner so its concurrency
//! properties (bounded queue, panic isolation, cancellation,
//! drain-on-shutdown) are testable without running the synthesizer.
//!
//! # Cancellation
//!
//! Every job carries a [`CancelToken`], handed back to the submitter.
//! Cancelling it frees the worker *immediately* in both phases of a job's
//! life: a still-queued job is discarded when a worker claims it (its
//! runner never starts), and a running job's runner observes the token
//! through the synthesis [`Budget`](resyn_budget::Budget) and unwinds at
//! its next checkpoint. The connection handler cancels when its client
//! disconnects mid-job, so a worker never keeps synthesizing for a client
//! nobody answers.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use resyn_budget::CancelToken;
use resyn_wire::proto::{Response, SynthRequest, Verdict};

/// A streaming progress callback: `(seq, elapsed)` pairs the runner should
/// forward while the job is still running (the event loop turns them into
/// `resyn-wire/2` `progress` frames).
pub type ProgressFn = Arc<dyn Fn(u64, Duration) + Send + Sync>;

/// A completion callback for [`Scheduler::submit_with`]. Called with
/// `Some(response)` when the job ran (or panicked — the panic becomes an
/// `error` response), and with `None` when the job was claimed but skipped
/// because its token was already cancelled (the submitter's client is gone;
/// there is no one to answer, but the submitter may want to account for the
/// abandonment).
pub type DoneFn = Box<dyn FnOnce(Option<Response>) + Send>;

/// A queued synthesis job: the parsed request plus the correlation id the
/// connection assigned, the callback its response travels back through, and
/// the token that cancels it.
pub struct Job {
    /// The request to run.
    pub request: SynthRequest,
    /// The response correlation id (client-supplied or server-assigned).
    pub id: String,
    /// Cancels this job (see the module documentation).
    pub token: CancelToken,
    /// Present when the submitter wants streamed progress: the runner
    /// forwards budget-checkpoint heartbeats through it.
    pub progress: Option<ProgressFn>,
    /// Hands the finished verdict back to the I/O thread that owns the
    /// client's connection.
    done: DoneFn,
    /// When the job entered the queue; the worker derives the queue-wait
    /// half of the latency split from it.
    queued_at: Instant,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("streaming", &self.progress.is_some())
            .finish_non_exhaustive()
    }
}

/// The bounded job queue shared by every connection handler and drained by
/// the worker pool.
pub struct Scheduler {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    /// Jobs allowed to wait in the queue; submissions beyond this are
    /// refused (`overloaded`).
    limit: usize,
    shutdown: AtomicBool,
    /// Observes `(queue_wait, solve_time)` for every job that actually ran;
    /// the server points this at its latency histograms.
    timing: Option<Box<dyn Fn(Duration, Duration) + Send + Sync>>,
}

impl Scheduler {
    /// A scheduler refusing submissions once `limit` jobs are queued
    /// (running jobs do not count — they have already left the queue).
    pub fn new(limit: usize) -> Scheduler {
        Scheduler {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            limit: limit.max(1),
            shutdown: AtomicBool::new(false),
            timing: None,
        }
    }

    /// Install a timing observer called with `(queue_wait, solve_time)`
    /// after each completed job. Builder-style, meant for construction time
    /// (before workers start).
    #[must_use]
    pub fn with_timing_observer(
        mut self,
        observer: impl Fn(Duration, Duration) + Send + Sync + 'static,
    ) -> Scheduler {
        self.timing = Some(Box::new(observer));
        self
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        // Jobs are plain data; a panic while the lock was held cannot leave
        // the queue in a torn state, so poisoning is recoverable.
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Enqueue a job whose response comes back through a callback: `done`
    /// runs on the worker thread and hands the rendered frame to the I/O
    /// thread that owns the connection. `progress` (optional) receives
    /// streamed heartbeats while the job runs. Returns the token that
    /// cancels the job. If the queue is at its depth limit or the scheduler
    /// is shutting down, the job is handed back — including its callback,
    /// uninvoked — so the caller can answer `overloaded` in-line and in
    /// order.
    // Handing the whole job back on refusal is the point, so the large Err
    // variant is deliberate.
    #[allow(clippy::result_large_err)]
    pub fn submit_with(
        &self,
        request: SynthRequest,
        id: String,
        progress: Option<ProgressFn>,
        done: DoneFn,
    ) -> Result<CancelToken, Job> {
        let token = CancelToken::new();
        let job = Job {
            request,
            id,
            token: token.clone(),
            progress,
            done,
            queued_at: Instant::now(),
        };
        let mut queue = self.lock_queue();
        if queue.len() >= self.limit || self.shutdown.load(Ordering::SeqCst) {
            return Err(job);
        }
        queue.push_back(job);
        drop(queue);
        self.ready.notify_one();
        Ok(token)
    }

    /// How many jobs are currently waiting (not running).
    pub fn depth(&self) -> usize {
        self.lock_queue().len()
    }

    /// Wake every worker and make further submissions fail. Queued jobs are
    /// abandoned — dropped here with their callbacks uninvoked — so
    /// shutdown waits only for the jobs already *running*, never for the
    /// backlog.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.lock_queue().clear();
        self.ready.notify_all();
    }

    /// One worker's main loop: claim jobs until shutdown. A `run` that
    /// panics produces an `error` response for that job only — the worker
    /// and every other queued job are unaffected (the same contract the
    /// parallel evaluation pool gives benchmarks). A job whose token was
    /// cancelled while it waited in the queue is discarded without running
    /// (its submitter has stopped listening); its callback is told with
    /// `None`. The runner receives the whole [`Job`] so mid-run
    /// cancellation reaches the synthesis budget and streamed progress
    /// reaches the submitter's `progress` callback.
    ///
    /// Waiting is purely condvar-driven:
    /// [`submit_with`](Self::submit_with) and [`shutdown`](Self::shutdown)
    /// notify under the queue mutex's discipline, so there is no wakeup to lose and no poll interval to pay
    /// on an idle server (the 100 ms `wait_timeout` this replaces burned a
    /// wakeup per worker per tick for nothing).
    pub fn worker_loop<F>(&self, run: F)
    where
        F: Fn(&Job) -> Response,
    {
        loop {
            let job = {
                let mut queue = self.lock_queue();
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = self
                        .ready
                        .wait(queue)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            if job.token.is_cancelled() {
                // The client disconnected while the job was queued: skip it
                // entirely instead of synthesizing for nobody. The
                // submitter still hears about the abandonment.
                (job.done)(None);
                continue;
            }
            let queue_wait = job.queued_at.elapsed();
            let solve_started = Instant::now();
            let response = match catch_unwind(AssertUnwindSafe(|| run(&job))) {
                Ok(response) => response,
                Err(payload) => Response::failure(
                    job.id.clone(),
                    Verdict::Error,
                    format!(
                        "synthesis worker panicked: {}",
                        panic_message(payload.as_ref())
                    ),
                ),
            };
            let solve_time = solve_started.elapsed();
            // Record timing *before* delivering the reply: once the client
            // holds its verdict it may immediately ask for `stats`, and the
            // histogram must already contain this job's samples.
            if let Some(observer) = &self.timing {
                observer(queue_wait, solve_time);
            }
            (job.done)(Some(response));
        }
    }
}

/// Extract a human-readable message from a panic payload (`panic!` with a
/// string literal or a formatted message; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn synth_request(marker: &str) -> SynthRequest {
        SynthRequest {
            problem: marker.to_string(),
            ..SynthRequest::default()
        }
    }

    /// Submit with a callback that forwards the response into a channel. A
    /// job that is skipped or abandoned drops the sender, so its receiver
    /// sees a closed channel instead of a response.
    #[allow(clippy::result_large_err)]
    fn submit(
        scheduler: &Scheduler,
        request: SynthRequest,
        id: String,
    ) -> Result<(mpsc::Receiver<Response>, CancelToken), Job> {
        let (reply, receiver) = mpsc::channel();
        let done: DoneFn = Box::new(move |response| {
            if let Some(response) = response {
                let _ = reply.send(response);
            }
        });
        let token = scheduler.submit_with(request, id, None, done)?;
        Ok((receiver, token))
    }

    fn ok_response(id: &str) -> Response {
        Response {
            id: id.to_string(),
            verdict: Verdict::Solved,
            program: None,
            time_secs: None,
            stats: Vec::new(),
            error: None,
        }
    }

    #[test]
    fn jobs_flow_through_a_worker_and_correlate_by_id() {
        let scheduler = Scheduler::new(8);
        std::thread::scope(|scope| {
            scope.spawn(|| scheduler.worker_loop(|job: &Job| ok_response(&job.id)));
            let (rx_a, _) = submit(&scheduler, synth_request("a"), "id-a".to_string()).unwrap();
            let (rx_b, _) = submit(&scheduler, synth_request("b"), "id-b".to_string()).unwrap();
            assert_eq!(rx_a.recv().unwrap().id, "id-a");
            assert_eq!(rx_b.recv().unwrap().id, "id-b");
            scheduler.shutdown();
        });
    }

    #[test]
    fn submissions_beyond_the_queue_limit_are_refused() {
        let scheduler = Scheduler::new(2);
        // A gate the single worker blocks on, so the queue fills
        // deterministically: one job running, two queued, the next refused.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                scheduler.worker_loop(|job: &Job| {
                    let _ = gate_rx.lock().unwrap().recv();
                    ok_response(&job.id)
                })
            });
            let (first, _) = submit(&scheduler, synth_request("running"), "r".to_string()).unwrap();
            // Wait until the worker has claimed the first job.
            while scheduler.depth() > 0 {
                std::thread::yield_now();
            }
            let queued: Vec<_> = (0..2)
                .map(|i| {
                    submit(&scheduler, synth_request("queued"), format!("q{i}"))
                        .unwrap()
                        .0
                })
                .collect();
            assert_eq!(scheduler.depth(), 2);
            // The queue is at its limit: the next submission bounces with
            // its job handed back (the caller renders `overloaded`).
            let refused = submit(&scheduler, synth_request("extra"), "x".to_string());
            let job = refused.expect_err("queue at limit must refuse");
            assert_eq!(job.id, "x");
            // Releasing the gate drains everything that was accepted.
            for _ in 0..3 {
                gate_tx.send(()).unwrap();
            }
            assert_eq!(first.recv().unwrap().id, "r");
            for (i, rx) in queued.into_iter().enumerate() {
                assert_eq!(rx.recv().unwrap().id, format!("q{i}"));
            }
            scheduler.shutdown();
        });
    }

    #[test]
    fn a_panicking_job_becomes_an_error_response_not_a_dead_worker() {
        let scheduler = Scheduler::new(8);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                scheduler.worker_loop(|job: &Job| {
                    if job.request.problem == "boom" {
                        panic!("injected failure");
                    }
                    ok_response(&job.id)
                })
            });
            let (rx_bad, _) = submit(&scheduler, synth_request("boom"), "bad".to_string()).unwrap();
            let bad = rx_bad.recv().unwrap();
            assert_eq!(bad.verdict, Verdict::Error);
            assert!(bad.error.as_deref().unwrap().contains("injected failure"));
            // The worker survived the panic and still serves jobs.
            let (rx_ok, _) = submit(&scheduler, synth_request("fine"), "ok".to_string()).unwrap();
            assert_eq!(rx_ok.recv().unwrap().verdict, Verdict::Solved);
            scheduler.shutdown();
        });
    }

    #[test]
    fn cancelling_a_running_job_frees_the_worker_promptly() {
        // The runner cooperates with the token the way the synthesizer's
        // budget checkpoints do: it loops until cancelled. Without
        // cancellation this job would spin forever; the token must both
        // unwind it and leave the worker serving later jobs.
        let scheduler = Scheduler::new(8);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                scheduler.worker_loop(|job: &Job| {
                    if job.request.problem == "endless" {
                        while !job.token.is_cancelled() {
                            std::thread::yield_now();
                        }
                        return Response::failure(job.id.clone(), Verdict::TimedOut, "cancelled");
                    }
                    ok_response(&job.id)
                })
            });
            let (endless, token) =
                submit(&scheduler, synth_request("endless"), "e".to_string()).unwrap();
            // Let the worker claim the job, then cancel it — the handler
            // does exactly this when its client disconnects mid-job.
            while scheduler.depth() > 0 {
                std::thread::yield_now();
            }
            token.cancel();
            let response = endless
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("the cancelled job must return");
            assert_eq!(response.verdict, Verdict::TimedOut);
            // The worker is free again: a follow-up job completes.
            let (next, _) = submit(&scheduler, synth_request("fine"), "ok".to_string()).unwrap();
            assert_eq!(next.recv().unwrap().verdict, Verdict::Solved);
            scheduler.shutdown();
        });
    }

    #[test]
    fn a_job_cancelled_while_queued_is_never_run() {
        let scheduler = Scheduler::new(8);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                scheduler.worker_loop(|job: &Job| {
                    assert_ne!(
                        job.request.problem, "abandoned",
                        "a queued job cancelled before being claimed must be skipped"
                    );
                    let _ = gate_rx.lock().unwrap().recv();
                    ok_response(&job.id)
                })
            });
            // Occupy the only worker, queue a job, cancel it while queued.
            let (running, _) =
                submit(&scheduler, synth_request("running"), "r".to_string()).unwrap();
            while scheduler.depth() > 0 {
                std::thread::yield_now();
            }
            let (abandoned, token) =
                submit(&scheduler, synth_request("abandoned"), "a".to_string()).unwrap();
            token.cancel();
            // Release the worker: it claims the cancelled job, skips it
            // (closing the reply channel without a response), and stays
            // alive for real work.
            gate_tx.send(()).unwrap();
            assert_eq!(running.recv().unwrap().id, "r");
            assert!(
                abandoned.recv().is_err(),
                "a skipped job's reply channel closes without a response"
            );
            let (next, _) = submit(&scheduler, synth_request("fine"), "ok".to_string()).unwrap();
            gate_tx.send(()).unwrap();
            assert_eq!(next.recv().unwrap().id, "ok");
            scheduler.shutdown();
        });
    }

    #[test]
    fn no_wakeup_is_lost_across_repeated_submit_recv_cycles() {
        // The worker waits purely on the condvar now (no poll interval).
        // Hammer the submit/wait race: every job must be picked up, and the
        // whole batch must complete far faster than one 100 ms poll tick
        // per job would have allowed.
        let scheduler = Scheduler::new(8);
        std::thread::scope(|scope| {
            scope.spawn(|| scheduler.worker_loop(|job: &Job| ok_response(&job.id)));
            let start = std::time::Instant::now();
            for i in 0..200 {
                let (rx, _) = submit(&scheduler, synth_request("ping"), format!("j{i}")).unwrap();
                let response = rx
                    .recv_timeout(std::time::Duration::from_secs(5))
                    .unwrap_or_else(|_| panic!("job j{i} was never picked up"));
                assert_eq!(response.id, format!("j{i}"));
            }
            assert!(
                start.elapsed() < std::time::Duration::from_secs(5),
                "200 jobs took {:?} — workers are sleeping through wakeups",
                start.elapsed()
            );
            scheduler.shutdown();
        });
    }

    #[test]
    fn shutdown_abandons_the_backlog_instead_of_draining_it() {
        let scheduler = Scheduler::new(8);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                scheduler.worker_loop(|job: &Job| {
                    let _ = gate_rx.lock().unwrap().recv();
                    ok_response(&job.id)
                })
            });
            let (running, _) =
                submit(&scheduler, synth_request("running"), "r".to_string()).unwrap();
            while scheduler.depth() > 0 {
                std::thread::yield_now();
            }
            let (queued, _) = submit(&scheduler, synth_request("queued"), "q".to_string()).unwrap();
            scheduler.shutdown();
            // The queued job was dropped: its reply channel closes without
            // a response (a connection handler renders this as a shutdown
            // error) — shutdown never waits for the backlog.
            assert!(queued.recv().is_err(), "queued job must be abandoned");
            // The in-flight job still completes once its work finishes.
            gate_tx.send(()).unwrap();
            assert_eq!(running.recv().unwrap().id, "r");
        });
    }

    #[test]
    fn shutdown_refuses_new_work_and_stops_workers() {
        let scheduler = Scheduler::new(8);
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| scheduler.worker_loop(|job: &Job| ok_response(&job.id)));
            scheduler.shutdown();
            assert!(submit(&scheduler, synth_request("late"), "l".to_string()).is_err());
            worker.join().unwrap();
        });
    }

    #[test]
    fn callback_submissions_deliver_the_response_and_streamed_progress() {
        let scheduler = Scheduler::new(8);
        let (done_tx, done_rx) = mpsc::channel::<Option<Response>>();
        let (progress_tx, progress_rx) = mpsc::channel::<u64>();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                scheduler.worker_loop(|job: &Job| {
                    // The runner forwards progress the way the synthesis
                    // budget's checkpoints do.
                    if let Some(progress) = &job.progress {
                        progress(1, std::time::Duration::from_millis(5));
                        progress(2, std::time::Duration::from_millis(10));
                    }
                    ok_response(&job.id)
                })
            });
            let progress: ProgressFn = Arc::new(move |seq, _elapsed| {
                let _ = progress_tx.send(seq);
            });
            scheduler
                .submit_with(
                    synth_request("streamed"),
                    "s".to_string(),
                    Some(progress),
                    Box::new(move |response| {
                        let _ = done_tx.send(response);
                    }),
                )
                .unwrap();
            let response = done_rx.recv().unwrap().expect("job ran to completion");
            assert_eq!(response.id, "s");
            assert_eq!(progress_rx.recv().unwrap(), 1);
            assert_eq!(progress_rx.recv().unwrap(), 2);
            scheduler.shutdown();
        });
    }

    #[test]
    fn a_callback_job_cancelled_while_queued_hears_none() {
        let scheduler = Scheduler::new(8);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let (done_tx, done_rx) = mpsc::channel::<Option<Response>>();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                scheduler.worker_loop(|job: &Job| {
                    assert_ne!(
                        job.request.problem, "abandoned",
                        "a queued job cancelled before being claimed must be skipped"
                    );
                    let _ = gate_rx.lock().unwrap().recv();
                    ok_response(&job.id)
                })
            });
            let (running, _) =
                submit(&scheduler, synth_request("running"), "r".to_string()).unwrap();
            while scheduler.depth() > 0 {
                std::thread::yield_now();
            }
            let token = scheduler
                .submit_with(
                    synth_request("abandoned"),
                    "a".to_string(),
                    None,
                    Box::new(move |response| {
                        let _ = done_tx.send(response);
                    }),
                )
                .unwrap();
            token.cancel();
            gate_tx.send(()).unwrap();
            assert_eq!(running.recv().unwrap().id, "r");
            assert!(
                done_rx.recv().unwrap().is_none(),
                "a skipped callback job is told it was abandoned"
            );
            scheduler.shutdown();
        });
    }

    #[test]
    fn the_timing_observer_sees_queue_wait_and_solve_time() {
        let (timing_tx, timing_rx) = mpsc::channel::<(Duration, Duration)>();
        let scheduler = Scheduler::new(8).with_timing_observer(move |queue_wait, solve| {
            let _ = timing_tx.send((queue_wait, solve));
        });
        std::thread::scope(|scope| {
            scope.spawn(|| {
                scheduler.worker_loop(|job: &Job| {
                    std::thread::sleep(Duration::from_millis(10));
                    ok_response(&job.id)
                })
            });
            let (rx, _) = submit(&scheduler, synth_request("timed"), "t".to_string()).unwrap();
            assert_eq!(rx.recv().unwrap().id, "t");
            let (_queue_wait, solve) = timing_rx.recv().unwrap();
            assert!(
                solve >= Duration::from_millis(10),
                "solve time {solve:?} must cover the runner's work"
            );
            scheduler.shutdown();
        });
    }
}
