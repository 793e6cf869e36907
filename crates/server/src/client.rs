//! A library client for the `resyn-wire/1` and `/2` synthesis server, used
//! by the `resyn client` subcommand and the integration tests.
//!
//! A [`Client`] owns one connection (one server session). Requests are
//! synchronous: each call writes one request line and blocks until the
//! matching response line arrives (the server answers a connection's
//! requests in order). [`Client::synth_stream`] additionally surfaces the
//! `resyn-wire/2` progress heartbeats that arrive ahead of the final
//! response.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use resyn_wire::proto::{Frame, Progress, Request, Response, SynthRequest};

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed (refused, reset, closed mid-response).
    Io(std::io::Error),
    /// The server closed the connection before responding.
    Disconnected,
    /// The server sent something that is not a `resyn-wire/1` response.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One session with a synthesis server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            next_id: 0,
        })
    }

    /// Submit a synthesis problem and wait for its response. A request
    /// without an id gets a client-assigned `cli-N` correlation id; the
    /// response is checked to carry it back.
    ///
    /// # Errors
    ///
    /// Returns a [`ClientError`] on transport or protocol failures. Note
    /// that non-`solved` verdicts are *successful* calls — inspect
    /// [`Response::verdict`].
    pub fn synth(&mut self, mut request: SynthRequest) -> Result<Response, ClientError> {
        let id = self.ensure_id(&mut request.id);
        let response = self.roundtrip(&Request::Synth(request).render())?;
        Self::check_id(&id, &response)?;
        Ok(response)
    }

    /// Submit a synthesis problem as a `resyn-wire/2` streaming request:
    /// `on_progress` is called for every progress heartbeat the server
    /// sends while the job runs, and the final response — identical to
    /// what [`synth`](Self::synth) would have returned — is the result.
    ///
    /// # Errors
    ///
    /// Returns a [`ClientError`] on transport or protocol failures (which
    /// include a heartbeat carrying the wrong correlation id or a
    /// non-monotonic sequence number).
    pub fn synth_stream(
        &mut self,
        mut request: SynthRequest,
        mut on_progress: impl FnMut(&Progress),
    ) -> Result<Response, ClientError> {
        request.stream = true;
        let id = self.ensure_id(&mut request.id);
        let line = Request::Synth(request).render();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut last_seq = 0u64;
        loop {
            let mut reply = String::new();
            if self.reader.read_line(&mut reply)? == 0 {
                return Err(ClientError::Disconnected);
            }
            let frame = Frame::parse_line(reply.trim_end_matches(['\r', '\n']))
                .map_err(ClientError::Protocol)?;
            match frame {
                Frame::Progress(progress) => {
                    if progress.id != id {
                        return Err(ClientError::Protocol(format!(
                            "progress correlation id `{}` does not match request id `{id}`",
                            progress.id
                        )));
                    }
                    if progress.seq <= last_seq {
                        return Err(ClientError::Protocol(format!(
                            "progress seq {} after seq {last_seq} is not monotonic",
                            progress.seq
                        )));
                    }
                    last_seq = progress.seq;
                    on_progress(&progress);
                }
                Frame::Final(response) => {
                    Self::check_id(&id, &response)?;
                    return Ok(response);
                }
            }
        }
    }

    /// Query the server's cumulative statistics.
    ///
    /// # Errors
    ///
    /// Returns a [`ClientError`] on transport or protocol failures.
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        let mut id = None;
        let id = self.ensure_id(&mut id);
        let response = self.roundtrip(
            &Request::Stats {
                id: Some(id.clone()),
            }
            .render(),
        )?;
        Self::check_id(&id, &response)?;
        Ok(response)
    }

    /// Send a raw request line (no trailing newline) and parse the response
    /// line. Used by tests to exercise the server's handling of malformed
    /// input; no correlation check is applied.
    ///
    /// # Errors
    ///
    /// Returns a [`ClientError`] on transport or protocol failures.
    pub fn send_raw_line(&mut self, line: &str) -> Result<Response, ClientError> {
        self.roundtrip(line)
    }

    fn ensure_id(&mut self, id: &mut Option<String>) -> String {
        if id.is_none() {
            self.next_id += 1;
            *id = Some(format!("cli-{}", self.next_id));
        }
        id.clone().expect("id was just ensured")
    }

    fn check_id(expected: &str, response: &Response) -> Result<(), ClientError> {
        if response.id == expected {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!(
                "response correlation id `{}` does not match request id `{expected}`",
                response.id
            )))
        }
    }

    fn roundtrip(&mut self, line: &str) -> Result<Response, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        let read = self.reader.read_line(&mut reply)?;
        if read == 0 {
            return Err(ClientError::Disconnected);
        }
        Response::parse_line(reply.trim_end_matches(['\r', '\n'])).map_err(ClientError::Protocol)
    }
}
