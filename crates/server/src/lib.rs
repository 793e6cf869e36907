//! The `resyn` synthesis server: a persistent TCP front end over the
//! synthesizer, speaking the newline-delimited `resyn-wire/1` and `/2`
//! protocols (see [`resyn_wire`]).
//!
//! One-shot `resyn synth` invocations pay full process startup and a cold
//! solver cache per problem. The server keeps one process-wide
//! [`SolverCache`] alive across every request, so sessions warm each other
//! up — a repeated or overlapping problem is answered mostly from cached
//! verdicts.
//!
//! # Threading model
//!
//! * One **I/O thread** runs an epoll readiness loop (see [`resyn_net`])
//!   over the listener and every nonblocking connection. A thousand idle
//!   clients cost a thousand registered fds, not a thousand parked
//!   threads; synthesis, not I/O, is what the server spends its time on.
//! * A fixed pool of `jobs` **synthesis workers** drains the bounded
//!   [`scheduler`] queue. Each job runs under `catch_unwind` (a panic
//!   becomes an `error` response for that request only) with a per-request
//!   wall-clock budget clamped to the server's `--timeout`, and takes a
//!   [`scoped`](SolverCache::scoped) cache handle so the counters it
//!   reports are its own, not its neighbours'. A finished verdict — or a
//!   `resyn-wire/2` progress heartbeat from the budget's checkpoints — is
//!   handed back to the I/O thread through its mailbox + waker eventfd;
//!   workers never touch a socket.
//!
//! # Backpressure
//!
//! The queue refuses work beyond [`ServerConfig::queue_limit`]; refused
//! requests get an immediate `overloaded` response instead of unbounded
//! buffering. Request lines beyond [`ServerConfig::max_request_bytes`] get
//! an `invalid_request` response and the connection is closed (there is no
//! way to resynchronize past an unterminated line). Per-connection output
//! is bounded by [`ServerConfig::max_output_bytes`]: a reader too slow to
//! drain what it asked for is disconnected rather than allowed to grow the
//! server's memory without bound.
//!
//! # Latency accounting
//!
//! Every completed job records its queue wait and its solve time into two
//! process-wide log-scale [`latency`] histograms; the `stats` request
//! reports p50/p95/p99 of both splits.

pub mod client;
mod event_loop;
pub mod latency;
pub mod scheduler;

use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use resyn_budget::{Budget, CancelToken, ProgressSink};
use resyn_net::{Epoll, Interest};
use resyn_parse::parse_problem;
use resyn_parse::surface::expr_to_surface;
use resyn_solver::SolverCache;
use resyn_synth::{Mode, SynthStats, Synthesizer};
use resyn_wire::proto::{Response, SynthRequest, Verdict};

pub use client::{Client, ClientError};
pub use resyn_wire as wire;

/// Server configuration (`resyn serve --addr --jobs --timeout --queue`).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port `0` picks an ephemeral port (the bound address
    /// is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Synthesis worker threads.
    pub jobs: usize,
    /// Upper bound on any request's wall-clock synthesis budget; requests
    /// asking for more are clamped to this.
    pub timeout: Duration,
    /// Jobs allowed to wait in the queue before submissions are refused
    /// with `overloaded`.
    pub queue_limit: usize,
    /// Longest accepted request line, in bytes.
    pub max_request_bytes: usize,
    /// Bound on a connection's pending output, in bytes. A client too slow
    /// to drain what it asked for (or asking for a single frame beyond the
    /// bound) is disconnected. Must exceed the largest legitimate frame —
    /// a long synthesized program or a `stats` response — with room for a
    /// backlog of them.
    pub max_output_bytes: usize,
    /// Minimum spacing between `resyn-wire/2` progress heartbeats on a
    /// streaming request (ticked from the synthesis budget's checkpoints,
    /// so heartbeats can be sparser, never denser).
    pub progress_interval: Duration,
    /// Approximate byte budget for the shared solver cache's verdict
    /// entries (`--cache-budget`); `None` leaves the cache unbounded.
    pub cache_budget: Option<usize>,
    /// Cap on concurrently-open client connections (`--max-conns`).
    /// Accepts beyond the cap get one immediate `overloaded` response and
    /// are closed, so a fd-exhaustion attack degrades into polite refusals
    /// instead of EMFILE inside the accept loop. `None` means unlimited.
    pub max_conns: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7171".to_string(),
            jobs: default_jobs(),
            timeout: Duration::from_secs(120),
            queue_limit: 32,
            max_request_bytes: 1 << 20,
            max_output_bytes: 64 << 20,
            progress_interval: Duration::from_millis(100),
            cache_budget: None,
            max_conns: None,
        }
    }
}

/// The default worker count: the machine's available parallelism, capped at
/// 8 (the same policy as the parallel evaluation harness — more workers
/// than that contend on the shared cache for no wall-clock gain).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Cumulative request counters, reported by the `stats` request.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    synth_requests: AtomicU64,
    stats_requests: AtomicU64,
    solved: AtomicU64,
    no_solution: AtomicU64,
    timed_out: AtomicU64,
    parse_errors: AtomicU64,
    invalid: AtomicU64,
    overloaded: AtomicU64,
    errors: AtomicU64,
    /// Synthesis requests whose client disconnected before the response was
    /// ready (the job was cancelled; no verdict was delivered). Keeps
    /// `synth_requests` equal to the sum of verdict counters plus this.
    cancelled: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn record_verdict(&self, verdict: Verdict) {
        match verdict {
            Verdict::Solved => Self::bump(&self.solved),
            Verdict::NoSolution => Self::bump(&self.no_solution),
            Verdict::TimedOut => Self::bump(&self.timed_out),
            Verdict::ParseError => Self::bump(&self.parse_errors),
            Verdict::InvalidRequest => Self::bump(&self.invalid),
            Verdict::Overloaded => Self::bump(&self.overloaded),
            Verdict::Error => Self::bump(&self.errors),
            Verdict::Ok => {}
        }
    }
}

/// State shared by the I/O thread and every synthesis worker.
struct Shared {
    config: ServerConfig,
    cache: SolverCache,
    scheduler: scheduler::Scheduler,
    counters: Counters,
    started: Instant,
    shutdown: std::sync::atomic::AtomicBool,
    /// The I/O thread's mailbox + waker.
    io: Arc<event_loop::IoShared>,
    /// Connections currently open, for the
    /// [`max_conns`](ServerConfig::max_conns) admission check.
    live_conns: AtomicU64,
    /// Time completed jobs spent waiting in the scheduler queue.
    queue_latency: Arc<latency::Histogram>,
    /// Time completed jobs spent actually solving.
    solve_latency: Arc<latency::Histogram>,
}

/// A running server. Dropping (or calling [`shutdown`](Self::shutdown) on)
/// the handle stops the accept loop, drains the workers and joins every
/// thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, abandon queued jobs, wait for in-flight jobs and
    /// join every server thread.
    pub fn shutdown(mut self) {
        self.initiate_shutdown();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }

    fn initiate_shutdown(&self) {
        self.shared
            .shutdown
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.shared.scheduler.shutdown();
        // The I/O thread re-checks the flag when its waker fires.
        self.shared.io.waker.wake();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.initiate_shutdown();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }
}

/// Bind and start a server. Returns as soon as the listener is bound; the
/// I/O thread and synthesis workers run on background threads owned by
/// the returned handle.
///
/// # Errors
///
/// Returns the bind/spawn error, or the error from setting up an epoll
/// instance or waker eventfd.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let cache = SolverCache::bounded(config.cache_budget);
    // The epoll instance, waker and mailbox are built up front so setup
    // failures surface here as the bind error would, not on a thread.
    let io = Arc::new(event_loop::IoShared::new()?);
    let epoll = Epoll::new()?;
    epoll.add(io.waker.fd(), event_loop::WAKER_TOKEN, Interest::READABLE)?;
    epoll.add(
        listener.as_raw_fd(),
        event_loop::LISTENER_TOKEN,
        Interest::READABLE,
    )?;
    let queue_latency = Arc::new(latency::Histogram::new());
    let solve_latency = Arc::new(latency::Histogram::new());
    let scheduler = scheduler::Scheduler::new(config.queue_limit).with_timing_observer({
        let (queue, solve) = (Arc::clone(&queue_latency), Arc::clone(&solve_latency));
        move |queue_wait, solve_time| {
            queue.record(queue_wait);
            solve.record(solve_time);
        }
    });
    let shared = Arc::new(Shared {
        scheduler,
        cache,
        counters: Counters::default(),
        started: Instant::now(),
        shutdown: std::sync::atomic::AtomicBool::new(false),
        io,
        live_conns: AtomicU64::new(0),
        queue_latency,
        solve_latency,
        config,
    });
    let supervisor = std::thread::Builder::new()
        .name("resyn-serve".to_string())
        .spawn({
            let shared = Arc::clone(&shared);
            move || supervise(listener, epoll, &shared)
        })?;
    Ok(ServerHandle {
        addr,
        shared,
        supervisor: Some(supervisor),
    })
}

/// The supervisor thread: synthesis workers + the I/O thread under one
/// scope, so everything is joined before the thread exits.
fn supervise(listener: TcpListener, epoll: Epoll, shared: &Arc<Shared>) {
    std::thread::scope(|scope| {
        for _ in 0..shared.config.jobs.max(1) {
            scope.spawn(|| {
                shared.scheduler.worker_loop(|job: &scheduler::Job| {
                    // A streaming job gets a budget-driven progress sink
                    // that forwards heartbeats to the submitting I/O
                    // thread's mailbox.
                    let sink = job.progress.clone().map(|emit| {
                        ProgressSink::new(shared.config.progress_interval, move |seq, elapsed| {
                            emit(seq, elapsed);
                        })
                    });
                    run_synth_request_with(
                        &shared.cache,
                        &shared.config,
                        &job.request,
                        &job.id,
                        &job.token,
                        sink,
                    )
                });
            });
        }
        scope.spawn(|| event_loop::run(shared, epoll, listener));
    });
}

/// Answer a `stats` request: cumulative request counters, the per-request
/// latency percentiles (queue-wait vs solve split) and the counters of the
/// process-wide shared solver cache.
fn stats_response(shared: &Shared, id: String) -> Response {
    let cache = shared.cache.stats();
    let count = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
    let quantile = |h: &latency::Histogram, q: f64| h.quantile(q).unwrap_or_default().as_secs_f64();
    let counters = &shared.counters;
    Response {
        id,
        verdict: Verdict::Ok,
        program: None,
        time_secs: None,
        stats: vec![
            (
                "uptime_secs".to_string(),
                shared.started.elapsed().as_secs_f64(),
            ),
            ("jobs".to_string(), shared.config.jobs as f64),
            ("queue_depth".to_string(), shared.scheduler.depth() as f64),
            (
                "latency_samples".to_string(),
                shared.solve_latency.count() as f64,
            ),
            (
                "queue_wait_p50_secs".to_string(),
                quantile(&shared.queue_latency, 0.50),
            ),
            (
                "queue_wait_p95_secs".to_string(),
                quantile(&shared.queue_latency, 0.95),
            ),
            (
                "queue_wait_p99_secs".to_string(),
                quantile(&shared.queue_latency, 0.99),
            ),
            (
                "solve_p50_secs".to_string(),
                quantile(&shared.solve_latency, 0.50),
            ),
            (
                "solve_p95_secs".to_string(),
                quantile(&shared.solve_latency, 0.95),
            ),
            (
                "solve_p99_secs".to_string(),
                quantile(&shared.solve_latency, 0.99),
            ),
            ("connections".to_string(), count(&counters.connections)),
            (
                "synth_requests".to_string(),
                count(&counters.synth_requests),
            ),
            (
                "stats_requests".to_string(),
                count(&counters.stats_requests),
            ),
            ("solved".to_string(), count(&counters.solved)),
            ("no_solution".to_string(), count(&counters.no_solution)),
            ("timed_out".to_string(), count(&counters.timed_out)),
            ("parse_errors".to_string(), count(&counters.parse_errors)),
            ("invalid_requests".to_string(), count(&counters.invalid)),
            ("overloaded".to_string(), count(&counters.overloaded)),
            ("errors".to_string(), count(&counters.errors)),
            ("cancelled".to_string(), count(&counters.cancelled)),
            ("cache_hits".to_string(), cache.hits as f64),
            ("cache_misses".to_string(), cache.misses as f64),
            ("interned_terms".to_string(), cache.interned_terms as f64),
            (
                "validity_entries".to_string(),
                cache.validity_entries as f64,
            ),
            ("sat_entries".to_string(), cache.sat_entries as f64),
            ("evictions".to_string(), cache.evictions as f64),
            ("resident_bytes".to_string(), cache.resident_bytes as f64),
        ],
        error: None,
    }
}

/// Run one synthesis request against the shared cache. This is the job the
/// scheduler's workers execute; it is public so integration tests and the
/// command-line tool can exercise request semantics without a socket.
///
/// The whole request runs under one [`Budget`]: the requested timeout
/// clamped to the server's (`config.timeout`) plus the job's [`CancelToken`]
/// — so a hit deadline *or* a disconnected client unwinds the synthesis
/// within one checkpoint interval, freeing the worker, instead of running
/// the current phase to completion.
pub fn run_synth_request(
    cache: &SolverCache,
    config: &ServerConfig,
    request: &SynthRequest,
    id: &str,
    token: &CancelToken,
) -> Response {
    run_synth_request_with(cache, config, request, id, token, None)
}

/// [`run_synth_request`] with an optional [`ProgressSink`] attached to the
/// request's budget: every budget checkpoint while the job runs gives the
/// sink a chance to emit a (rate-limited) `resyn-wire/2` progress
/// heartbeat. This is the worker-side half of streaming; the final
/// response is identical with or without the sink.
pub fn run_synth_request_with(
    cache: &SolverCache,
    config: &ServerConfig,
    request: &SynthRequest,
    id: &str,
    token: &CancelToken,
    progress: Option<ProgressSink>,
) -> Response {
    let max_timeout = config.timeout;
    let mode: Mode = match request.mode.as_deref() {
        None => Mode::ReSyn,
        Some(name) => match name.parse() {
            Ok(mode) => mode,
            Err(message) => return Response::failure(id, Verdict::InvalidRequest, message),
        },
    };
    let timeout = match request.timeout_secs {
        None => max_timeout,
        // Clamp before converting: `from_secs_f64` panics on out-of-range
        // floats, and nothing above the server budget matters anyway.
        Some(secs) if secs.is_finite() && secs >= 0.0 => {
            Duration::from_secs_f64(secs.min(max_timeout.as_secs_f64()))
        }
        Some(secs) => {
            return Response::failure(
                id,
                Verdict::InvalidRequest,
                format!("`timeout_secs` must be a finite non-negative number, got {secs}"),
            )
        }
    };
    let problem = match parse_problem(&request.problem) {
        Ok(problem) => problem,
        Err(e) => return Response::failure(id, Verdict::ParseError, e.to_string()),
    };
    // The cheap structural lint subset (no solver queries) runs on every
    // request: a deny-level finding means the problem is ill-formed, and
    // refusing it here with the diagnostics costs microseconds where
    // synthesizing over it would burn a worker's whole budget.
    if let Ok(diags) = resyn_parse::lint_source_structural(&request.problem) {
        let denies: Vec<String> = diags
            .iter()
            .filter(|d| d.level == resyn_analysis::lint::Level::Deny)
            .map(|d| d.render_human("problem"))
            .collect();
        if !denies.is_empty() {
            return Response::failure(id, Verdict::ParseError, denies.join("; "));
        }
    }
    let goals: Vec<_> = match &request.goal {
        None => problem.into_goals(),
        Some(name) => {
            let selected: Vec<_> = problem
                .into_goals()
                .into_iter()
                .filter(|g| &g.name == name)
                .collect();
            if selected.is_empty() {
                return Response::failure(
                    id,
                    Verdict::ParseError,
                    format!("no goal named `{name}` in the problem"),
                );
            }
            selected
        }
    };

    // One wall-clock budget for the whole request (later goals get whatever
    // the earlier ones left over), cancelled when the client's connection
    // gives up on the job.
    let mut budget = Budget::with_timeout(timeout).attach(token.clone());
    if let Some(sink) = progress {
        budget = budget.with_progress(sink);
    }
    let mut merged = SynthStats::default();
    let mut programs = String::new();
    let mut failed_goal = None;
    for goal in &goals {
        let synthesizer = Synthesizer::new().with_cache(cache.clone());
        let outcome = synthesizer.synthesize_with_budget(goal, mode, &budget);
        merged.merge(&outcome.stats);
        match outcome.program {
            Some(program) => {
                use std::fmt::Write as _;
                let _ = writeln!(programs, "-- goal {}", goal.name);
                let _ = writeln!(programs, "{}", expr_to_surface(&program));
            }
            None => {
                failed_goal = Some(goal.name.clone());
                break;
            }
        }
    }
    let verdict = match &failed_goal {
        None => Verdict::Solved,
        Some(_) if merged.timed_out => Verdict::TimedOut,
        Some(_) => Verdict::NoSolution,
    };
    Response {
        id: id.to_string(),
        verdict,
        program: (verdict == Verdict::Solved).then_some(programs),
        time_secs: Some(merged.duration.as_secs_f64()),
        stats: synth_stats_pairs(&merged),
        error: failed_goal.map(|goal| {
            format!(
                "synthesis {} for goal `{goal}`",
                if verdict == Verdict::TimedOut {
                    "timed out"
                } else {
                    "exhausted the search space"
                }
            )
        }),
    }
}

/// Flatten [`SynthStats`] into the wire's counter pairs. Cache counters
/// come from the request's own [`scoped`](SolverCache::scoped) handle, so
/// they attribute this request's lookups only — never a concurrent
/// session's.
fn synth_stats_pairs(stats: &SynthStats) -> Vec<(String, f64)> {
    vec![
        ("candidates".to_string(), stats.candidates_checked as f64),
        ("skeletons".to_string(), stats.skeletons as f64),
        (
            "resource_rechecks".to_string(),
            stats.resource_rechecks as f64,
        ),
        ("cache_hits".to_string(), stats.solver_cache_hits as f64),
        ("cache_misses".to_string(), stats.solver_cache_misses as f64),
        ("interned_terms".to_string(), stats.interned_terms as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const ID_PROBLEM: &str = "goal id_list :: xs: List a -> {List a | len _v == len xs}";

    fn test_config(timeout_secs: u64) -> ServerConfig {
        ServerConfig {
            timeout: Duration::from_secs(timeout_secs),
            ..ServerConfig::default()
        }
    }

    fn zero_config() -> ServerConfig {
        ServerConfig {
            timeout: Duration::ZERO,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn run_synth_request_solves_a_small_problem_with_scoped_stats() {
        let cache = SolverCache::new();
        let request = SynthRequest {
            problem: ID_PROBLEM.to_string(),
            ..SynthRequest::default()
        };
        let response = run_synth_request(
            &cache,
            &test_config(60),
            &request,
            "r1",
            &CancelToken::new(),
        );
        assert_eq!(response.verdict, Verdict::Solved, "{:?}", response.error);
        assert_eq!(response.id, "r1");
        let program = response.program.as_deref().unwrap();
        assert!(program.contains("-- goal id_list"), "{program}");
        assert!(response.stat("cache_misses").unwrap() > 0.0);

        // A warm repeat is answered from the shared cache and attributes
        // its *own* lookups: mostly hits, far fewer misses.
        let warm = run_synth_request(
            &cache,
            &test_config(60),
            &request,
            "r2",
            &CancelToken::new(),
        );
        assert_eq!(warm.verdict, Verdict::Solved);
        assert!(warm.stat("cache_hits").unwrap() > 0.0);
        assert!(warm.stat("cache_misses").unwrap() < response.stat("cache_misses").unwrap());
        // (The warm-run *timing* comparison lives in `tests/server.rs` on a
        // heavier problem; this goal solves in well under a millisecond, so
        // a wall-clock assertion here would be scheduling noise.)
    }

    #[test]
    fn bad_mode_timeout_and_problem_map_to_their_verdicts() {
        let cache = SolverCache::new();
        let base = SynthRequest {
            problem: ID_PROBLEM.to_string(),
            ..SynthRequest::default()
        };
        let bad_mode = SynthRequest {
            mode: Some("quantum".to_string()),
            ..base.clone()
        };
        let response =
            run_synth_request(&cache, &test_config(5), &bad_mode, "m", &CancelToken::new());
        assert_eq!(response.verdict, Verdict::InvalidRequest);
        assert!(response.error.unwrap().contains("unknown mode"));

        let bad_timeout = SynthRequest {
            timeout_secs: Some(f64::NAN),
            ..base.clone()
        };
        let response = run_synth_request(
            &cache,
            &test_config(5),
            &bad_timeout,
            "t",
            &CancelToken::new(),
        );
        assert_eq!(response.verdict, Verdict::InvalidRequest);

        let bad_problem = SynthRequest {
            problem: "goal oops ::".to_string(),
            ..SynthRequest::default()
        };
        let response = run_synth_request(
            &cache,
            &test_config(5),
            &bad_problem,
            "p",
            &CancelToken::new(),
        );
        assert_eq!(response.verdict, Verdict::ParseError);
        assert!(response.program.is_none());

        let bad_goal = SynthRequest {
            goal: Some("missing".to_string()),
            ..base
        };
        let response =
            run_synth_request(&cache, &test_config(5), &bad_goal, "g", &CancelToken::new());
        assert_eq!(response.verdict, Verdict::ParseError);
        assert!(response.error.unwrap().contains("missing"));
    }

    #[test]
    fn deny_level_lint_findings_refuse_the_request_before_synthesis() {
        // Parses fine, but using the List-sorted `_v` as a boolean is
        // ill-sorted: the structural lint denies it and the request never
        // reaches a synthesis budget.
        let cache = SolverCache::new();
        let request = SynthRequest {
            problem: "goal f :: xs: List a -> {List a | _v && true}".to_string(),
            ..SynthRequest::default()
        };
        let response =
            run_synth_request(&cache, &test_config(60), &request, "l", &CancelToken::new());
        assert_eq!(
            response.verdict,
            Verdict::ParseError,
            "{:?}",
            response.error
        );
        assert!(
            response
                .error
                .as_deref()
                .unwrap()
                .contains("ill-sorted-refinement"),
            "{:?}",
            response.error
        );
    }

    #[test]
    fn a_zero_budget_request_times_out() {
        let cache = SolverCache::new();
        let request = SynthRequest {
            problem: "goal append :: xs: List a^1 -> ys: List a -> \
                      {List a | len _v == len xs + len ys}"
                .to_string(),
            timeout_secs: Some(0.0),
            ..SynthRequest::default()
        };
        let response =
            run_synth_request(&cache, &test_config(60), &request, "z", &CancelToken::new());
        assert_eq!(response.verdict, Verdict::TimedOut, "{:?}", response.error);
        assert!(response.error.unwrap().contains("timed out"));
    }

    #[test]
    fn requested_timeouts_are_clamped_to_the_server_budget() {
        let cache = SolverCache::new();
        let request = SynthRequest {
            problem: "goal append :: xs: List a^1 -> ys: List a -> \
                      {List a | len _v == len xs + len ys}"
                .to_string(),
            // Asks for an hour; the server allows (effectively) nothing.
            timeout_secs: Some(3600.0),
            ..SynthRequest::default()
        };
        let response =
            run_synth_request(&cache, &zero_config(), &request, "c", &CancelToken::new());
        assert_eq!(response.verdict, Verdict::TimedOut);
    }
}
