//! Soak and streaming tests for the event-driven server core.
//!
//! The headline test parks over a thousand concurrent connections — idle,
//! slow-loris, and active — on a server with a *single* I/O thread, and
//! proves every active client still gets its verdict: connections cost the
//! readiness loop a registered fd, not a thread. The remaining tests pin
//! the `resyn-wire/2` streaming behaviour (progress frames strictly before
//! the final response, `/1` sessions unaffected), verdict equality between
//! the wire path and the in-process engine, the bounded-output-queue
//! slow-reader guard, and the latency percentiles in `stats`.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use resyn::server::wire::{SynthRequest, Verdict};
use resyn::server::{serve, Client, ServerConfig, ServerHandle};

const ID_PROBLEM: &str = "goal id_list :: xs: List a -> {List a | len _v == len xs}";
const APPEND_PROBLEM: &str = "goal append :: xs: List a^1 -> ys: List a -> \
                              {List a | len _v == len xs + len ys}";

fn synth_request(problem: &str) -> SynthRequest {
    SynthRequest {
        problem: problem.to_string(),
        ..SynthRequest::default()
    }
}

fn soak_server() -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        timeout: Duration::from_secs(60),
        queue_limit: 256,
        ..ServerConfig::default()
    })
    .expect("server binds an ephemeral port")
}

#[test]
fn a_thousand_concurrent_connections_on_one_io_thread_all_get_verdicts() {
    const IDLE: usize = 700;
    const LORIS: usize = 200;
    const ACTIVE: usize = 128;

    let server = soak_server();
    let addr = server.addr();

    // Idle connections: open and hold, never write a byte.
    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle #{i}: {e}")))
        .collect();

    // Slow-loris connections: write a *partial* request line (no newline)
    // and then stall. The frame assembler must hold the fragment without
    // blocking anyone else.
    let loris: Vec<TcpStream> = (0..LORIS)
        .map(|i| {
            let mut s = TcpStream::connect(addr).unwrap_or_else(|e| panic!("loris #{i}: {e}"));
            s.write_all(b"{\"wire\": \"resyn-wire/1\", \"type\": \"sy")
                .expect("partial frame sent");
            s.flush().unwrap();
            s
        })
        .collect();

    // Active connections: a full synthesis round-trip each, concurrently,
    // while the idle and loris sockets stay parked. The first solve warms
    // the shared cache, so the wave behind it is cheap.
    let verdicts: Vec<Verdict> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ACTIVE)
            .map(|i| {
                scope.spawn(move || {
                    let mut client =
                        Client::connect(addr).unwrap_or_else(|e| panic!("active #{i}: {e}"));
                    client
                        .synth(synth_request(ID_PROBLEM))
                        .unwrap_or_else(|e| panic!("active #{i}: {e}"))
                        .verdict
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(verdicts.len(), ACTIVE);
    assert!(
        verdicts.iter().all(|v| *v == Verdict::Solved),
        "every active client gets its verdict"
    );

    // The fleet really was concurrent: >1024 sessions, one I/O thread.
    let mut observer = Client::connect(addr).unwrap();
    let stats = observer.stats().unwrap();
    assert!(
        stats.stat("connections").unwrap() >= (IDLE + LORIS + ACTIVE) as f64,
        "expected >= {} connections, stats say {:?}",
        IDLE + LORIS + ACTIVE,
        stats.stat("connections")
    );
    // No leaked jobs: every synth request is accounted for as a verdict or
    // a cancellation, nothing is stuck in flight.
    assert_eq!(stats.stat("synth_requests"), Some(ACTIVE as f64));
    assert_eq!(stats.stat("solved"), Some(ACTIVE as f64));
    assert_eq!(stats.stat("cancelled"), Some(0.0));
    // The latency histogram saw every completed job, split into a
    // queue-wait and a solve component with ordered percentiles.
    assert_eq!(stats.stat("latency_samples"), Some(ACTIVE as f64));
    for prefix in ["queue_wait", "solve"] {
        let p50 = stats.stat(&format!("{prefix}_p50_secs")).unwrap();
        let p95 = stats.stat(&format!("{prefix}_p95_secs")).unwrap();
        let p99 = stats.stat(&format!("{prefix}_p99_secs")).unwrap();
        assert!(
            p50 <= p95 && p95 <= p99,
            "{prefix} percentiles must be ordered: {p50} {p95} {p99}"
        );
    }

    // Drop the parked fleet and prove the loop survived it: the loris
    // fragments must never have been parsed as requests, and a fresh
    // session still gets answers promptly.
    drop(idle);
    drop(loris);
    assert_eq!(stats.stat("invalid_requests"), Some(0.0));
    let after = observer.synth(synth_request(ID_PROBLEM)).unwrap();
    assert_eq!(after.verdict, Verdict::Solved);
    server.shutdown();
}

#[test]
fn accepts_beyond_the_connection_cap_bounce_with_overloaded_and_close() {
    const CAP: usize = 4;
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        timeout: Duration::from_secs(60),
        max_conns: Some(CAP),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Fill the cap, round-tripping a stats query on each connection so the
    // test proceeds only once the server has adopted all of them.
    let mut parked: Vec<Client> = (0..CAP)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("parked #{i}: {e}")))
        .collect();
    for client in &mut parked {
        client.stats().expect("parked connection is live");
    }

    // One more: accepted, answered with `overloaded`, and closed — the EOF
    // that terminates `read_to_end` is the close assertion.
    let mut over = TcpStream::connect(addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    over.read_to_end(&mut buf)
        .expect("server closes the refused connection");
    let text = String::from_utf8_lossy(&buf);
    assert!(text.contains("overloaded"), "{text}");
    assert!(text.ends_with('\n'), "a complete response line: {text}");

    // The refusal is visible in the counters, seen from inside the cap.
    let stats = parked[0].stats().unwrap();
    assert!(stats.stat("overloaded").unwrap() >= 1.0, "{stats:?}");

    // Freeing a slot re-admits new sessions once the server notices the
    // close (asynchronously, so poll briefly).
    drop(parked.pop());
    let mut admitted = false;
    for _ in 0..250 {
        let mut fresh = Client::connect(addr).unwrap();
        if fresh.stats().is_ok() {
            admitted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(admitted, "a freed slot must re-admit new connections");
    server.shutdown();
}

#[test]
fn streaming_sessions_hear_progress_strictly_before_the_final_frame() {
    // A zero heartbeat interval reports every budget checkpoint, so even
    // quick jobs stream; the client rejects non-monotonic sequence numbers
    // and any frame after the final, so a bare `Ok` here *is* the ordering
    // assertion.
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        timeout: Duration::from_secs(60),
        progress_interval: Duration::ZERO,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let mut beats = 0u64;
    let streamed = client
        .synth_stream(synth_request(APPEND_PROBLEM), |_| beats += 1)
        .expect("streamed session completes");
    assert_eq!(streamed.verdict, Verdict::Solved, "{:?}", streamed.error);
    assert!(beats > 0, "a long-budget job must heartbeat at least once");

    // A `/1`-era session on the same server sees exactly one response line
    // and no progress frames — the plain client would fail to parse one.
    let plain = client
        .synth(synth_request(APPEND_PROBLEM))
        .expect("plain session completes");
    assert_eq!(plain.verdict, Verdict::Solved);

    // The final frame is unchanged by streaming: same verdict, same
    // program, bit for bit.
    assert_eq!(streamed.program, plain.program);
    server.shutdown();
}

#[test]
fn wire_verdicts_are_identical_to_the_in_process_engine() {
    // The event-driven front end must be a transport, not a different
    // synthesizer: for each problem, verdict and program coming over TCP
    // equal what the engine computes in-process with the same config.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    };
    let server = serve(config.clone()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for (i, problem) in [ID_PROBLEM, APPEND_PROBLEM, "goal oops ::"]
        .iter()
        .enumerate()
    {
        let wire = client.synth(synth_request(problem)).unwrap();
        let cache = resyn::solver::SolverCache::new();
        let local = resyn::server::run_synth_request(
            &cache,
            &config,
            &synth_request(problem),
            &format!("local-{i}"),
            &resyn::budget::CancelToken::new(),
        );
        assert_eq!(wire.verdict, local.verdict, "{problem}");
        assert_eq!(wire.program, local.program, "{problem}");
    }
    server.shutdown();
}

#[test]
fn a_slow_reader_overflowing_its_output_queue_is_disconnected() {
    // An output queue too small for a stats response: the write-side guard
    // must drop the connection rather than buffer without bound. (256 bytes
    // still fits a short `invalid_request` reply, which the liveness probe
    // below relies on.)
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        max_output_bytes: 256,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"{\"wire\": \"resyn-wire/1\", \"type\": \"stats\"}\n")
        .unwrap();
    stream.flush().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The stats response cannot fit in 256 bytes, so the server hangs up;
    // depending on flush timing we may see a prefix, but never a full
    // response line.
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    assert!(
        !buf.contains(&b'\n'),
        "no complete response can fit the queue: {:?}",
        String::from_utf8_lossy(&buf)
    );
    // The server itself is fine afterwards: a fresh session's (short)
    // rejection response fits the bound and round-trips normally.
    let mut fresh = Client::connect(server.addr()).unwrap();
    let probe = fresh.send_raw_line("this is not json").unwrap();
    assert_eq!(probe.verdict, Verdict::InvalidRequest);
    server.shutdown();
}
