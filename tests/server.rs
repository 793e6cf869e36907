//! Integration tests for the `resyn serve` subsystem: an in-process server
//! driven by real TCP clients over the `resyn-wire/1` protocol.
//!
//! The headline test launches the server, runs 8 concurrent client
//! sessions against it and proves the warm-cache effect the server exists
//! for: a problem submitted once warms the process-wide shared solver
//! cache, so a repeat submission reports cache hits and is no slower than
//! the cold run. The remaining tests pin down the wire-level edge cases —
//! malformed lines, oversized requests, disconnects mid-request, timeouts.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use resyn::server::wire::{SynthRequest, Verdict};
use resyn::server::{serve, Client, ServerConfig};

const ID_PROBLEM: &str = "goal id_list :: xs: List a -> {List a | len _v == len xs}";
const APPEND_PROBLEM: &str = "goal append :: xs: List a^1 -> ys: List a -> \
                              {List a | len _v == len xs + len ys}";

/// A test server on an ephemeral port.
fn test_server(jobs: usize) -> resyn::server::ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        timeout: Duration::from_secs(60),
        queue_limit: 32,
        max_request_bytes: 64 * 1024,
        ..ServerConfig::default()
    })
    .expect("server binds an ephemeral port")
}

fn synth_request(problem: &str) -> SynthRequest {
    SynthRequest {
        problem: problem.to_string(),
        ..SynthRequest::default()
    }
}

#[test]
fn eight_concurrent_sessions_share_and_warm_the_cache() {
    let server = test_server(2);
    let addr = server.addr();

    // 8 concurrent sessions, each its own TCP connection, all submitting
    // the same problem: whoever solves an obligation first populates the
    // shared cache for everyone else in flight.
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.synth(synth_request(ID_PROBLEM)).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for response in &responses {
        assert_eq!(response.verdict, Verdict::Solved, "{:?}", response.error);
    }
    // At most the first few sessions pay misses; everyone after runs
    // against the warm shared tables, so hits dominate in aggregate.
    let total_hits: f64 = responses
        .iter()
        .map(|r| r.stat("cache_hits").unwrap())
        .sum();
    assert!(
        total_hits > 0.0,
        "concurrent sessions must share each other's verdicts"
    );

    // Warm-cache effect, timed: a cold problem none of the sessions
    // touched, submitted twice in a row on a quiet server. The repeat is
    // answered almost entirely from the cache the first run populated, so
    // it reports hits and is no slower. (`append` is deliberately the
    // heaviest problem here, so the timing comparison is not sub-
    // millisecond noise.)
    let mut timer = Client::connect(addr).unwrap();
    let cold = timer.synth(synth_request(APPEND_PROBLEM)).unwrap();
    assert_eq!(cold.verdict, Verdict::Solved, "{:?}", cold.error);
    assert!(cold.stat("cache_misses").unwrap() > 0.0);
    let warm = timer.synth(synth_request(APPEND_PROBLEM)).unwrap();
    assert_eq!(warm.verdict, Verdict::Solved);
    assert!(
        warm.stat("cache_hits").unwrap() > 0.0,
        "the repeat must hit the cache: {:?}",
        warm.stats
    );
    assert!(
        warm.stat("cache_misses").unwrap() < cold.stat("cache_misses").unwrap(),
        "the repeat must re-prove almost nothing"
    );
    assert!(
        warm.time_secs.unwrap() <= cold.time_secs.unwrap(),
        "warm {}s must not exceed cold {}s",
        warm.time_secs.unwrap(),
        cold.time_secs.unwrap()
    );

    // The aggregate stats view confirms the sharing globally.
    let stats = timer.stats().unwrap();
    assert_eq!(stats.verdict, Verdict::Ok);
    assert!(stats.stat("cache_hits").unwrap() > 0.0);
    assert_eq!(stats.stat("synth_requests"), Some(10.0));
    assert_eq!(stats.stat("solved"), Some(10.0));
    assert!(stats.stat("connections").unwrap() >= 9.0);

    server.shutdown();
}

#[test]
fn per_session_hit_counters_are_scoped_not_global() {
    let server = test_server(2);
    let mut session_a = Client::connect(server.addr()).unwrap();
    let mut session_b = Client::connect(server.addr()).unwrap();

    let first = session_a.synth(synth_request(ID_PROBLEM)).unwrap();
    let second = session_b.synth(synth_request(ID_PROBLEM)).unwrap();
    assert_eq!(first.verdict, Verdict::Solved);
    assert_eq!(second.verdict, Verdict::Solved);

    // Session B ran entirely against the cache session A populated …
    assert!(second.stat("cache_hits").unwrap() > 0.0);
    assert!(second.stat("cache_misses").unwrap() < first.stat("cache_misses").unwrap());
    // … and the global counters are the sum of both sessions' scoped ones,
    // which they could not be if each response reported the global view.
    let stats = session_a.stats().unwrap();
    assert_eq!(
        stats.stat("cache_hits").unwrap(),
        first.stat("cache_hits").unwrap() + second.stat("cache_hits").unwrap()
    );
    assert_eq!(
        stats.stat("cache_misses").unwrap(),
        first.stat("cache_misses").unwrap() + second.stat("cache_misses").unwrap()
    );
}

#[test]
fn malformed_request_lines_get_invalid_request_and_the_session_survives() {
    let server = test_server(1);
    let mut client = Client::connect(server.addr()).unwrap();

    for (line, needle) in [
        ("this is not json", "expected"),
        ("{\"type\": \"synth\"}", "wire"),
        (
            "{\"wire\": \"resyn-wire/1\", \"type\": \"synth\"}",
            "problem",
        ),
        (
            "{\"wire\": \"resyn-wire/1\", \"type\": \"launch\"}",
            "unknown request type",
        ),
        // An old client's cache snapshot request is an unknown type, and
        // the error names only the request types the server speaks.
        (
            "{\"wire\":\"resyn-wire/1\",\"type\":\"cache_export\"}",
            "unknown request type `cache_export` (expected `synth` or `stats`)",
        ),
    ] {
        let response = client.send_raw_line(line).unwrap();
        assert_eq!(response.verdict, Verdict::InvalidRequest, "line: {line}");
        let error = response.error.unwrap();
        assert!(error.contains(needle), "`{line}` → `{error}`");
    }

    // The connection is still usable after every rejection.
    let ok = client.synth(synth_request(ID_PROBLEM)).unwrap();
    assert_eq!(ok.verdict, Verdict::Solved);
}

#[test]
fn oversized_requests_are_rejected_and_the_connection_closed() {
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        max_request_bytes: 1024,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let huge = format!(
        "{{\"wire\": \"resyn-wire/1\", \"type\": \"synth\", \"problem\": \"{}\"}}",
        "x".repeat(4096)
    );
    let response = client.send_raw_line(&huge).unwrap();
    assert_eq!(response.verdict, Verdict::InvalidRequest);
    assert!(response.error.unwrap().contains("exceeds 1024 bytes"));
    // The server closed the connection (no way to resync inside an
    // unterminated line): the next request cannot be answered.
    assert!(client.send_raw_line("{}").is_err());
    // A fresh connection works fine.
    let mut fresh = Client::connect(server.addr()).unwrap();
    assert_eq!(fresh.stats().unwrap().verdict, Verdict::Ok);
}

#[test]
fn a_disconnect_mid_request_does_not_wedge_the_server() {
    let server = test_server(1);
    {
        // Write half a request — no terminating newline — and vanish.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"{\"wire\": \"resyn-wire/1\", \"type\": \"synth\", \"pro")
            .unwrap();
        stream.flush().unwrap();
    } // dropped: TCP FIN mid-line
      // The partial line was dropped, never parsed, and the server still
      // serves new sessions.
    let mut client = Client::connect(server.addr()).unwrap();
    let response = client.synth(synth_request(ID_PROBLEM)).unwrap();
    assert_eq!(response.verdict, Verdict::Solved);
    let stats = client.stats().unwrap();
    // The aborted connection produced no request at all.
    assert_eq!(stats.stat("invalid_requests"), Some(0.0));
}

#[test]
fn a_disconnected_clients_job_is_cancelled_freeing_the_worker() {
    use resyn::server::wire::Request;

    // One worker and a 60 s server budget: the wide-component unsatisfiable
    // problem below would occupy the worker for the full budget if client
    // disconnects did not cancel the running job.
    let server = test_server(1);
    let addr = server.addr();
    let hard = include_str!("../examples/problems/wide_components.re");

    // Client A submits the hard problem and vanishes without reading the
    // response.
    {
        let mut stream = TcpStream::connect(addr).expect("client A connects");
        let line = format!("{}\n", Request::Synth(synth_request(hard)).render());
        stream.write_all(line.as_bytes()).expect("request sent");
        stream.flush().unwrap();
        // Give the worker a moment to claim the job, then disconnect.
        std::thread::sleep(Duration::from_millis(300));
    }

    // Client B's trivial request must be answered long before A's 60 s
    // budget would have released the only worker: A's handler observes the
    // disconnect, cancels the job's token, and the synthesis budget unwinds
    // at its next checkpoint.
    let started = std::time::Instant::now();
    let mut client = Client::connect(addr).expect("client B connects");
    let response = client.synth(synth_request(ID_PROBLEM)).expect("response");
    assert_eq!(response.verdict, Verdict::Solved, "{:?}", response.error);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the worker was not freed by the disconnect (waited {:?})",
        started.elapsed()
    );
    // The abandoned request is accounted for: verdict counters plus
    // `cancelled` still sum to `synth_requests`.
    let stats = client.stats().expect("stats response");
    assert_eq!(stats.stat("synth_requests"), Some(2.0));
    assert_eq!(stats.stat("cancelled"), Some(1.0));
    assert_eq!(stats.stat("solved"), Some(1.0));
    server.shutdown();
}

#[test]
fn a_zero_timeout_request_reports_timed_out() {
    let server = test_server(1);
    let mut client = Client::connect(server.addr()).unwrap();
    let response = client
        .synth(SynthRequest {
            problem: APPEND_PROBLEM.to_string(),
            timeout_secs: Some(0.0),
            ..SynthRequest::default()
        })
        .unwrap();
    assert_eq!(response.verdict, Verdict::TimedOut, "{:?}", response.error);
    assert!(response.program.is_none());
    let stats = client.stats().unwrap();
    assert_eq!(stats.stat("timed_out"), Some(1.0));
}

#[test]
fn unparseable_problems_report_parse_error_with_the_reason() {
    let server = test_server(1);
    let mut client = Client::connect(server.addr()).unwrap();
    let response = client.synth(synth_request("goal oops ::")).unwrap();
    assert_eq!(response.verdict, Verdict::ParseError);
    assert!(response.error.is_some());
    // Correlation ids survive error paths too.
    let response = client
        .synth(SynthRequest {
            id: Some("my-id".to_string()),
            problem: "goal oops ::".to_string(),
            ..SynthRequest::default()
        })
        .unwrap();
    assert_eq!(response.id, "my-id");
}
