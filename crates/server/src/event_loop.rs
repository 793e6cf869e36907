//! The server's event-driven I/O core: one thread running an epoll
//! readiness loop over the listener and many nonblocking connections.
//!
//! This replaces the thread-per-connection handlers: instead of parking a
//! blocked thread (and its stack) per idle client, the I/O thread owns a
//! [`resyn_net::Epoll`] instance, a [`resyn_net::Waker`] eventfd and a map
//! of connections, and multiplexes all of their reads and writes from one
//! loop. Synthesis still happens on the scheduler's worker pool — the I/O
//! thread never blocks on a job. The two worlds meet at the [`IoShared`]
//! mailbox: workers push [`Frame`]s and ring the waker; the I/O thread
//! drains the mailbox at its next wakeup and turns completed verdicts and
//! streamed progress heartbeats into queued output frames.
//!
//! # Per-connection state machine
//!
//! Each connection carries a [`resyn_net::LineReader`] (incremental
//! newline-frame assembly under the request-size cap), a
//! [`resyn_net::WriteQueue`] (bounded pending output; a reader too slow to
//! drain it is disconnected rather than allowed to balloon the server's
//! memory), and the set of in-flight job ids with their cancel tokens.
//!
//! * **Readable** — read until `WouldBlock`, feeding the line assembler;
//!   every completed line is dispatched exactly as the old per-connection
//!   handler did. A zero-byte read (or `EPOLLHUP`/`EPOLLRDHUP`/error) is
//!   the disconnect signal that used to come from the blocking `fill_buf`
//!   probe: all in-flight jobs are cancelled on the spot, freeing their
//!   workers at the next budget checkpoint.
//! * **Writable** — flush the write queue; interest in `EPOLLOUT` is
//!   registered only while output is pending, so idle connections cost one
//!   registered fd and nothing else.
//! * **Fairness** — each readiness batch is serviced starting from a
//!   rotating offset, so one endlessly-chatty connection cannot starve the
//!   rest of the batch behind it.
//!
//! # Ordering
//!
//! A job's progress heartbeats and its final response are pushed to the
//! same mailbox by its worker (the in-goal pool joins before the job
//! returns), and the mailbox is drained FIFO — so clients always observe
//! `progress… → final`, never a frame after the verdict.

use std::collections::HashMap;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use resyn_budget::CancelToken;
use resyn_net::{Epoll, Event, Interest, LineEvent, LineReader, Waker, WriteQueue};
use resyn_wire::proto::{Progress, Request, Response, Verdict};

use crate::scheduler::ProgressFn;
use crate::{Counters, Shared};

/// Token of the I/O thread's waker eventfd.
pub(crate) const WAKER_TOKEN: u64 = 0;
/// Token of the listener.
pub(crate) const LISTENER_TOKEN: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// One wire frame a synthesis worker posts for a connection: a `progress`
/// heartbeat (`verdict: None`, `end: false`) or a job's final response
/// (`verdict: Some(_)`, `end: true`).
pub(crate) struct Frame {
    /// The connection's token.
    conn: u64,
    /// The job's correlation id (matched against the in-flight set).
    id: String,
    /// The rendered frame, without its trailing newline.
    line: String,
    /// The final response's verdict, counted when the frame is queued.
    verdict: Option<Verdict>,
    /// Whether this frame completes the job.
    end: bool,
}

/// The mailbox half of the I/O thread: what the synthesis workers'
/// callbacks see. Posting is push-then-wake; the waker coalesces, so a
/// burst of frames costs one syscall per drain, not per frame.
pub(crate) struct IoShared {
    inbox: Mutex<Vec<Frame>>,
    pub(crate) waker: Waker,
}

impl IoShared {
    pub(crate) fn new() -> std::io::Result<IoShared> {
        Ok(IoShared {
            inbox: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        })
    }

    /// Post a frame and ring the I/O thread's waker.
    fn post(&self, frame: Frame) {
        self.inbox
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(frame);
        self.waker.wake();
    }

    fn drain(&self) -> Vec<Frame> {
        std::mem::take(
            &mut *self
                .inbox
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

/// One connection's state, owned by the I/O thread.
struct Conn {
    stream: TcpStream,
    reader: LineReader,
    out: WriteQueue,
    /// The interest currently registered with epoll (kept in sync lazily).
    interest: Interest,
    /// Per-connection counter behind the `srv-N` assigned ids.
    next_assigned: u64,
    /// Jobs submitted by this connection that have not answered yet,
    /// with the tokens that cancel them on disconnect.
    inflight: Vec<(String, CancelToken)>,
    /// Stop reading and close once the write queue drains (oversized
    /// request, or EOF with queued output still owed to the peer).
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream, shared: &Shared) -> Conn {
        Conn {
            stream,
            reader: LineReader::new(shared.config.max_request_bytes),
            out: WriteQueue::new(shared.config.max_output_bytes),
            interest: Interest::READABLE,
            next_assigned: 0,
            inflight: Vec::new(),
            close_after_flush: false,
        }
    }
}

/// Cancel (and forget) every job the connection is still waiting on. Their
/// final frames will arrive addressed to an id that is no longer in-flight
/// and be counted under `cancelled` instead of delivered.
fn abandon_inflight(conn: &mut Conn) {
    for (_, token) in conn.inflight.drain(..) {
        token.cancel();
    }
}

/// Run the I/O thread until shutdown.
pub(crate) fn run(shared: &Arc<Shared>, epoll: Epoll, listener: TcpListener) {
    let mut thread = IoThread {
        shared,
        epoll,
        listener,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
    };
    thread.run();
}

struct IoThread<'a> {
    shared: &'a Arc<Shared>,
    epoll: Epoll,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl IoThread<'_> {
    fn run(&mut self) {
        let mut events = Vec::new();
        let mut rotation = 0usize;
        loop {
            if self.epoll.wait(&mut events, None).is_err() {
                return;
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                // Unwind every worker still solving for one of our clients.
                for conn in self.conns.values_mut() {
                    abandon_inflight(conn);
                }
                return;
            }
            let n = events.len();
            if n == 0 {
                continue;
            }
            // Service the batch from a rotating offset so a persistently
            // busy connection cannot starve whoever epoll sorts after it.
            rotation = rotation.wrapping_add(1);
            for k in 0..n {
                let event = events[(k + rotation) % n];
                match event.token {
                    WAKER_TOKEN => self.drain_mailbox(),
                    LISTENER_TOKEN => self.accept_ready(),
                    _ => self.conn_event(event),
                }
            }
        }
    }

    fn drain_mailbox(&mut self) {
        self.shared.io.waker.drain();
        for frame in self.shared.io.drain() {
            self.handle_frame(frame);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    Counters::bump(&self.shared.counters.connections);
                    if let Some(cap) = self.shared.config.max_conns {
                        if self.shared.live_conns.load(Ordering::SeqCst) >= cap as u64 {
                            // Over the cap: one definitive `overloaded`
                            // answer and close, never a registered fd. The
                            // accepted socket is still blocking, so the
                            // short write either lands or fails fast.
                            let response = Response::failure(
                                "srv-0",
                                Verdict::Overloaded,
                                format!("server at its connection cap ({cap}); retry later"),
                            );
                            self.shared.counters.record_verdict(response.verdict);
                            use std::io::Write as _;
                            let _ = stream.write_all((response.render() + "\n").as_bytes());
                            continue;
                        }
                    }
                    self.shared.live_conns.fetch_add(1, Ordering::SeqCst);
                    self.adopt(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    // Transient accept failures (EMFILE under fd
                    // exhaustion, ECONNABORTED): back off briefly instead
                    // of spinning on a level-triggered ready listener.
                    std::thread::sleep(Duration::from_millis(20));
                    return;
                }
            }
        }
    }

    /// Take ownership of an accepted connection (already counted against
    /// `live_conns`; failure paths here give the slot back).
    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.shared.live_conns.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        let conn = Conn::new(stream, self.shared);
        // On registration failure the connection is simply dropped
        // (closed); the client sees a reset, the server stays up.
        if self
            .epoll
            .add(conn.stream.as_raw_fd(), token, Interest::READABLE)
            .is_ok()
        {
            self.conns.insert(token, conn);
        } else {
            self.shared.live_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn handle_frame(&mut self, frame: Frame) {
        let Frame {
            conn: token,
            id,
            line,
            verdict,
            end,
        } = frame;
        let Some(conn) = self.conns.get_mut(&token) else {
            // The connection died while the job ran; its verdict has
            // nowhere to go.
            if end {
                Counters::bump(&self.shared.counters.cancelled);
            }
            return;
        };
        let position = conn.inflight.iter().position(|(job, _)| *job == id);
        let mut alive = true;
        if end {
            match position {
                Some(p) => {
                    conn.inflight.remove(p);
                    if let Some(verdict) = verdict {
                        self.shared.counters.record_verdict(verdict);
                    }
                    alive = queue_line(conn, line);
                }
                // The job was abandoned (its token cancelled at
                // disconnect-with-pending-output) before the verdict
                // landed.
                None => Counters::bump(&self.shared.counters.cancelled),
            }
        } else if position.is_some() {
            // Progress heartbeats for abandoned jobs are dropped.
            alive = queue_line(conn, line);
        }
        if alive {
            alive = conn_still_alive(&self.epoll, token, conn);
        }
        if !alive {
            self.drop_conn(token);
        }
    }

    fn conn_event(&mut self, event: Event) {
        // Stale events for a connection dropped earlier in this batch.
        let Some(conn) = self.conns.get_mut(&event.token) else {
            return;
        };
        let mut alive = true;
        // A hangup still gets a read pass: the kernel may hold final bytes
        // (requests pipelined ahead of the peer's close), and the read
        // observing EOF is what makes the disconnect definitive.
        if event.readable || event.hangup || event.error {
            alive = read_ready(self.shared, event.token, conn);
        }
        if alive && event.writable {
            alive = flush_ready(conn);
        }
        if alive {
            alive = conn_still_alive(&self.epoll, event.token, conn);
        }
        if !alive {
            self.drop_conn(event.token);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            abandon_inflight(&mut conn);
            self.shared.live_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Post-I/O bookkeeping for a surviving connection: close it once a
/// drained write queue has nothing more coming, otherwise make sure the
/// registered epoll interest matches what the connection now needs.
fn conn_still_alive(epoll: &Epoll, token: u64, conn: &mut Conn) -> bool {
    if conn.close_after_flush && conn.out.is_empty() {
        return false;
    }
    let desired = Interest {
        readable: !conn.close_after_flush,
        writable: !conn.out.is_empty(),
    };
    if desired != conn.interest {
        if epoll
            .modify(conn.stream.as_raw_fd(), token, desired)
            .is_err()
        {
            return false;
        }
        conn.interest = desired;
    }
    true
}

/// Read until `WouldBlock`, dispatching every completed request line.
/// Returns `false` when the connection must be dropped now.
fn read_ready(shared: &Arc<Shared>, token: u64, conn: &mut Conn) -> bool {
    let mut buf = [0u8; 8192];
    loop {
        if conn.close_after_flush {
            // Past the point of caring about further input.
            return true;
        }
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                // EOF: the probe's "client disconnected". Nothing more can
                // be asked, so cancel what is running — but deliver output
                // already owed (a pipelined request answered just before
                // the peer half-closed) before closing.
                abandon_inflight(conn);
                if conn.out.is_empty() {
                    return false;
                }
                conn.close_after_flush = true;
                return true;
            }
            Ok(n) => {
                conn.reader.feed(&buf[..n]);
                if !drain_lines(shared, token, conn) {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Dispatch every line the assembler has completed. Returns `false` when
/// the connection must be dropped now.
fn drain_lines(shared: &Arc<Shared>, token: u64, conn: &mut Conn) -> bool {
    while let Some(event) = conn.reader.next_event() {
        match event {
            LineEvent::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                if !handle_line(shared, token, conn, &line) {
                    return false;
                }
            }
            LineEvent::Overflow => {
                // There is no way to resynchronize past an oversized or
                // unterminated request; answer once and close.
                let response = Response::failure(
                    assign_id(conn, None),
                    Verdict::InvalidRequest,
                    format!(
                        "request exceeds {} bytes; closing connection",
                        shared.config.max_request_bytes
                    ),
                );
                let alive = queue_response(shared, conn, &response);
                conn.close_after_flush = true;
                return alive;
            }
        }
    }
    true
}

/// Deterministic correlation ids for requests that do not bring one:
/// `srv-1`, `srv-2`, … in per-connection request order.
fn assign_id(conn: &mut Conn, supplied: Option<&str>) -> String {
    conn.next_assigned += 1;
    supplied
        .map(str::to_string)
        .unwrap_or_else(|| format!("srv-{}", conn.next_assigned))
}

/// Dispatch one parsed-or-not request line. Returns `false` when the
/// connection must be dropped now.
fn handle_line(shared: &Arc<Shared>, token: u64, conn: &mut Conn, line: &str) -> bool {
    let request = match Request::parse_line(line) {
        Ok(request) => request,
        Err(message) => {
            let response =
                Response::failure(assign_id(conn, None), Verdict::InvalidRequest, message);
            return queue_response(shared, conn, &response);
        }
    };
    let id = assign_id(conn, request.id());
    let response = match request {
        Request::Stats { .. } => {
            Counters::bump(&shared.counters.stats_requests);
            crate::stats_response(shared, id)
        }
        Request::Synth(synth) => {
            Counters::bump(&shared.counters.synth_requests);
            let stream = synth.stream;
            let done = {
                let (shared, id) = (Arc::clone(shared), id.clone());
                Box::new(move |response: Option<Response>| match response {
                    // Skipped while queued: the client was already gone.
                    None => Counters::bump(&shared.counters.cancelled),
                    Some(response) => shared.io.post(Frame {
                        conn: token,
                        id,
                        line: response.render(),
                        verdict: Some(response.verdict),
                        end: true,
                    }),
                })
            };
            let progress: Option<ProgressFn> = stream.then(|| {
                let (shared, id) = (Arc::clone(shared), id.clone());
                Arc::new(move |seq: u64, elapsed: Duration| {
                    let frame = Progress {
                        id: id.clone(),
                        seq,
                        elapsed_secs: elapsed.as_secs_f64(),
                    };
                    shared.io.post(Frame {
                        conn: token,
                        id: id.clone(),
                        line: frame.render(),
                        verdict: None,
                        end: false,
                    });
                }) as ProgressFn
            });
            match shared
                .scheduler
                .submit_with(synth, id.clone(), progress, done)
            {
                Ok(cancel) => {
                    conn.inflight.push((id, cancel));
                    return true;
                }
                // The refused job (and its never-invoked callback) is
                // dropped here, so the overloaded answer below is the only
                // response the request ever gets — and it is queued
                // in-order with the connection's other answers.
                Err(_refused) => Response::failure(
                    id,
                    Verdict::Overloaded,
                    format!(
                        "queue full ({} jobs waiting); retry later",
                        shared.config.queue_limit
                    ),
                ),
            }
        }
    };
    queue_response(shared, conn, &response)
}

/// Count and queue a locally-produced response frame.
fn queue_response(shared: &Shared, conn: &mut Conn, response: &Response) -> bool {
    shared.counters.record_verdict(response.verdict);
    queue_line(conn, response.render())
}

/// Queue one rendered frame (appending the newline) and flush what the
/// socket will take right now. Returns `false` when the connection must be
/// dropped: the peer reads too slowly for the output bound, a single frame
/// exceeds it, or the write side failed.
fn queue_line(conn: &mut Conn, line: String) -> bool {
    let mut bytes = line.into_bytes();
    bytes.push(b'\n');
    if !conn.out.push(bytes) {
        return false;
    }
    flush_ready(conn)
}

/// Flush pending output; `false` means the write side is dead.
fn flush_ready(conn: &mut Conn) -> bool {
    conn.out.flush(&mut conn.stream).is_ok()
}
