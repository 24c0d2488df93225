//! The TCP front-end: one port, two wire modes, one engine.
//!
//! [`Server::bind`] serves `PROTOCOL.md` over `std::net` through the
//! nonblocking poll reactor of [`crate::reactor`]: a few event-loop
//! threads own every socket, dispatch workers feed the blocking
//! scheduler, and both NDJSON and the length-prefixed binary framing
//! are negotiated per connection.
//!
//! Every request is parsed once, by the reactor, and served through the
//! same [`RequestHandler`] seam, so responses are byte-identical across
//! wire modes. [`TcpClient`] (NDJSON) and [`BinaryClient`] (binary
//! framing) are the matching blocking clients used by the bench load
//! generators, CI smoke run, and tests.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use serde::Value;

use man_repro::{ManError, Prediction};

use crate::exporter::prometheus_page;
use crate::framing;
use crate::protocol::{
    error_response, health_response, load_response, metrics_response, raw_error_response,
    stats_response, unload_response, Request,
};
use crate::reactor::{serve_request, FrontendStats, ReactorConfig, ReactorFrontend};
use crate::registry::ModelRegistry;

/// The dispatch seam the front-end serves requests through.
///
/// Everything above the socket — wire-mode sniffing, framing, request
/// parsing, backpressure, the dispatch pool — is identical whether the
/// process is a plain model server or a cluster router; only what
/// happens to a *parsed* request differs. A [`ModelRegistry`] serves
/// requests locally (scheduler + sessions); a [`crate::cluster::Router`]
/// routes them to worker processes over the binary framing. The reactor
/// is generic over this trait, so the router inherits NDJSON + binary
/// serving, the reactor's slab, and every backpressure valve for free.
///
/// The reactor answers parse errors, `predict` (through
/// [`RequestHandler::handle_predict`]) and `dump_trace` itself; every
/// other verb reaches [`RequestHandler::handle`].
pub trait RequestHandler: Send + Sync + 'static {
    /// Serves one parsed request and renders the response line, without
    /// a trailing newline. A `predict` or `dump_trace` passed here is
    /// answered exactly as the front-end answers it.
    fn handle(&self, request: Request) -> String;

    /// Serves one predict — the JSON verb and the compact binary
    /// encoding alike.
    ///
    /// # Errors
    ///
    /// Whatever the underlying predict path reports; the front-end maps
    /// it onto the stable wire codes.
    fn handle_predict(&self, model: &str, input: Vec<f32>) -> Result<Prediction, ManError>;
}

impl RequestHandler for ModelRegistry {
    fn handle(&self, request: Request) -> String {
        let reply = match request {
            Request::Load { model, path } => {
                self.load_file(&model, &path).map(|i| load_response(&i))
            }
            Request::Unload { model } => self.unload(&model).map(|()| unload_response(&model)),
            Request::Stats { model } => self.stats(model.as_deref()).map(|s| stats_response(&s)),
            Request::Metrics => Ok(metrics_response(&prometheus_page(self))),
            Request::Health => Ok(health_response(&self.names())),
            Request::Join { .. } | Request::Leave { .. } => Ok(raw_error_response(
                "bad_request",
                "join/leave are cluster-router verbs; this server is a plain node",
            )),
            request @ (Request::Predict { .. } | Request::DumpTrace) => {
                Ok(serve_request(self, request))
            }
        };
        reply.unwrap_or_else(|e| error_response(&e))
    }

    fn handle_predict(&self, model: &str, input: Vec<f32>) -> Result<Prediction, ManError> {
        self.predict(model, input)
    }
}

/// A running TCP front-end over a shared [`ModelRegistry`].
pub struct Server {
    addr: SocketAddr,
    reactor: ReactorFrontend,
}

impl Server {
    /// Binds and starts accepting with the default [`ReactorConfig`].
    /// Bind to port 0 for an ephemeral port (see [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind (or reactor spawn) failure.
    pub fn bind(addr: impl ToSocketAddrs, registry: Arc<ModelRegistry>) -> io::Result<Self> {
        Self::bind_with(addr, registry, ReactorConfig::default())
    }

    /// Binds with explicit reactor tuning.
    ///
    /// # Errors
    ///
    /// Propagates the bind (or reactor spawn) failure.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        registry: Arc<ModelRegistry>,
        config: ReactorConfig,
    ) -> io::Result<Self> {
        Self::bind_handler(addr, registry as Arc<dyn RequestHandler>, config)
    }

    /// Binds a front-end over any [`RequestHandler`] — the seam the
    /// cluster router uses to serve both wire modes on one port with
    /// the exact same reactor a plain model server gets.
    ///
    /// # Errors
    ///
    /// Propagates the bind (or reactor spawn) failure.
    pub fn bind_handler(
        addr: impl ToSocketAddrs,
        handler: Arc<dyn RequestHandler>,
        config: ReactorConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let reactor = ReactorFrontend::spawn(listener, handler, config)?;
        Ok(Self { addr, reactor })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection-level counters: accepted/open/rejected connections,
    /// the slab high-water mark, and the per-wire-mode split.
    pub fn frontend_stats(&self) -> FrontendStats {
        self.reactor.stats()
    }

    /// Stops accepting, answers everything in flight, closes every
    /// connection, and joins the reactor's threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.reactor.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------
// Clients.
// ---------------------------------------------------------------------

/// A wire-level failure seen by [`TcpClient`] / [`BinaryClient`]: the
/// stable protocol code plus the server's message (or `"io"` for
/// transport failures).
#[derive(Clone, Debug)]
pub struct WireError {
    /// Stable error code (`overloaded`, `unknown_model`, ... or `io`).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

impl WireError {
    fn io(e: &io::Error) -> Self {
        Self {
            code: "io".into(),
            message: e.to_string(),
        }
    }

    fn protocol(msg: impl Into<String>) -> Self {
        Self {
            code: "bad_response".into(),
            message: msg.into(),
        }
    }
}

use crate::protocol::entry as field;

/// Unwraps a parsed response envelope: `Ok` for `"ok": true`, the
/// server's error code/message for `"ok": false`.
fn check_ok(value: Value) -> Result<Value, WireError> {
    let obj = value
        .as_object()
        .ok_or_else(|| WireError::protocol("response is not an object"))?;
    match field(obj, "ok") {
        Some(Value::Bool(true)) => Ok(value),
        Some(Value::Bool(false)) => {
            let get_str = |key: &str| match field(obj, key) {
                Some(Value::Str(s)) => s.clone(),
                _ => String::new(),
            };
            Err(WireError {
                code: get_str("error"),
                message: get_str("message"),
            })
        }
        _ => Err(WireError::protocol("response has no `ok` field")),
    }
}

/// A blocking line-protocol (NDJSON) client for the TCP front-end.
///
/// One request in flight at a time; responses arrive in request order.
/// The reactor sniffs the first byte (a `{`) and speaks NDJSON back.
/// Each request goes out, newline included, in a single `write_all`.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TcpClient {
    /// Connects to a running [`Server`].
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one raw request line, newline appended, in a single
    /// `write_all` and returns the parsed response value.
    ///
    /// # Errors
    ///
    /// [`WireError`] with code `io` on transport failure, `bad_response`
    /// on an unparseable reply.
    pub fn request(&mut self, line: &str) -> Result<Value, WireError> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| WireError::io(&e))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| WireError::io(&e))?;
        if response.is_empty() {
            return Err(WireError::protocol("server closed the connection"));
        }
        serde_json::from_str(response.trim())
            .map_err(|e| WireError::protocol(format!("unparseable response: {e}")))
    }

    /// Sends a request and unwraps the `ok` envelope.
    ///
    /// # Errors
    ///
    /// The server's error code/message when `ok` is `false`, plus the
    /// transport failures of [`TcpClient::request`].
    fn request_ok(&mut self, line: &str) -> Result<Value, WireError> {
        check_ok(self.request(line)?)
    }

    /// `predict` round-trip: returns `(class, scores)`.
    ///
    /// # Errors
    ///
    /// As [`TcpClient::request`], plus any server-reported error.
    /// A non-finite input is refused with `bad_response` before anything
    /// is sent: JSON has no spelling for it.
    pub fn predict(&mut self, model: &str, input: &[f32]) -> Result<(usize, Vec<i64>), WireError> {
        let value = self.request_ok(&predict_line(model, input)?)?;
        let obj = value.as_object().expect("request_ok returns objects");
        let class = match field(obj, "class") {
            Some(v) => <usize as serde::Deserialize>::from_value(v)
                .map_err(|e| WireError::protocol(format!("bad `class`: {e}")))?,
            None => return Err(WireError::protocol("predict response lacks `class`")),
        };
        let scores = match field(obj, "scores") {
            Some(v) => <Vec<i64> as serde::Deserialize>::from_value(v)
                .map_err(|e| WireError::protocol(format!("bad `scores`: {e}")))?,
            None => return Err(WireError::protocol("predict response lacks `scores`")),
        };
        Ok((class, scores))
    }

    /// `load` round-trip.
    ///
    /// # Errors
    ///
    /// As [`TcpClient::request`], plus any server-reported error.
    pub fn load(&mut self, model: &str, path: &str) -> Result<Value, WireError> {
        let line = serde_json::to_string(&Value::Object(vec![
            ("op".into(), Value::Str("load".into())),
            ("model".into(), Value::Str(model.into())),
            ("path".into(), Value::Str(path.into())),
        ]))
        .map_err(|e| WireError::protocol(e.to_string()))?;
        self.request_ok(&line)
    }

    /// `unload` round-trip.
    ///
    /// # Errors
    ///
    /// As [`TcpClient::request`], plus any server-reported error.
    pub fn unload(&mut self, model: &str) -> Result<(), WireError> {
        let line = serde_json::to_string(&Value::Object(vec![
            ("op".into(), Value::Str("unload".into())),
            ("model".into(), Value::Str(model.into())),
        ]))
        .map_err(|e| WireError::protocol(e.to_string()))?;
        self.request_ok(&line).map(|_| ())
    }

    /// `stats` round-trip: the raw response value (the `models` array
    /// carries one object per model).
    ///
    /// # Errors
    ///
    /// As [`TcpClient::request`], plus any server-reported error.
    pub fn stats(&mut self, model: Option<&str>) -> Result<Value, WireError> {
        let mut fields = vec![("op".into(), Value::Str("stats".into()))];
        if let Some(model) = model {
            fields.push(("model".into(), Value::Str(model.into())));
        }
        let line = serde_json::to_string(&Value::Object(fields))
            .map_err(|e| WireError::protocol(e.to_string()))?;
        self.request_ok(&line)
    }

    /// `metrics` round-trip: the Prometheus text page.
    ///
    /// # Errors
    ///
    /// As [`TcpClient::request`], plus any server-reported error.
    pub fn metrics_page(&mut self) -> Result<String, WireError> {
        let value = self.request_ok(r#"{"op":"metrics"}"#)?;
        let obj = value.as_object().expect("request_ok returns objects");
        match field(obj, "body") {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(WireError::protocol("metrics response lacks `body`")),
        }
    }

    /// `dump_trace` round-trip: the most recent flight-recorder dump as
    /// a JSON value, or `None` if nothing has been triggered.
    ///
    /// # Errors
    ///
    /// As [`TcpClient::request`], plus any server-reported error.
    pub fn dump_trace(&mut self) -> Result<Option<Value>, WireError> {
        let value = self.request_ok(r#"{"op":"dump_trace"}"#)?;
        let obj = value.as_object().expect("request_ok returns objects");
        match field(obj, "dump") {
            Some(Value::Null) | None => Ok(None),
            Some(dump) => Ok(Some(dump.clone())),
        }
    }
}

/// Renders a `predict` request line, byte for byte what `serde_json`
/// writes for the `{"op","model","input"}` object, without building its
/// `Value` tree: each input as its `f64` shortest form (which reads back
/// to the same `f32`), with `.0` appended to integral text.
///
/// # Errors
///
/// `bad_response` with `serde_json`'s message for a NaN or infinite
/// input.
fn predict_line(model: &str, input: &[f32]) -> Result<String, WireError> {
    use std::fmt::Write as _;
    let model = serde_json::to_string(model).expect("a string always renders");
    // Room for 20 bytes per input; longer renderings grow the buffer.
    let mut line = String::with_capacity(40 + model.len() + 20 * input.len());
    line.push_str(r#"{"op":"predict","model":"#);
    line.push_str(&model);
    line.push_str(r#","input":["#);
    for (i, &x) in input.iter().enumerate() {
        let x = f64::from(x);
        if !x.is_finite() {
            return Err(WireError::protocol(
                "JSON cannot represent a non-finite float",
            ));
        }
        if i > 0 {
            line.push(',');
        }
        let start = line.len();
        write!(line, "{x}").expect("writing to a String cannot fail");
        if !line[start..].contains(['.', 'e', 'E']) {
            line.push_str(".0");
        }
    }
    line.push_str("]}");
    Ok(line)
}

/// A blocking client for the length-prefixed binary framing
/// (`PROTOCOL.md` §binary).
///
/// [`BinaryClient::connect`] performs the `MANB` handshake; after it,
/// `predict` travels in the compact fixed-layout encoding (no JSON on
/// the hot path) while every other verb rides JSON-in-a-frame through
/// `BinaryClient::request`. Error responses arrive as the same JSON
/// envelopes NDJSON clients see, so error codes are stable across wire
/// modes.
pub struct BinaryClient {
    stream: TcpStream,
    /// The framing version the server agreed to.
    version: u8,
}

impl BinaryClient {
    /// Connects and performs the binary-framing handshake.
    ///
    /// # Errors
    ///
    /// `io` on transport failure; `bad_response` if the server answers
    /// with anything but a valid `MANB` handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr).map_err(|e| WireError::io(&e))?;
        Self::handshake_on(stream)
    }

    /// Connects with explicit connect + read/write timeouts — the
    /// constructor the cluster router uses so a dead worker surfaces as
    /// a fast `io` error (and a failover) instead of a hung client.
    ///
    /// # Errors
    ///
    /// As [`BinaryClient::connect`], plus `io` when any deadline
    /// expires.
    pub(crate) fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<Self, WireError> {
        let stream = TcpStream::connect_timeout(addr, timeout).map_err(|e| WireError::io(&e))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| WireError::io(&e))?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| WireError::io(&e))?;
        Self::handshake_on(stream)
    }

    fn handshake_on(mut stream: TcpStream) -> Result<Self, WireError> {
        stream.set_nodelay(true).map_err(|e| WireError::io(&e))?;
        stream
            .write_all(&framing::handshake(framing::VERSION))
            .map_err(|e| WireError::io(&e))?;
        let mut hello = [0u8; framing::HANDSHAKE_LEN];
        stream
            .read_exact(&mut hello)
            .map_err(|e| WireError::io(&e))?;
        let version = framing::negotiate(&hello)
            .ok_or_else(|| WireError::protocol("server did not answer the MANB handshake"))?;
        Ok(Self { stream, version })
    }

    /// The framing version negotiated with the server.
    pub fn version(&self) -> u8 {
        self.version
    }

    fn read_frame(&mut self) -> Result<Vec<u8>, WireError> {
        let mut len = [0u8; 4];
        self.stream
            .read_exact(&mut len)
            .map_err(|e| WireError::io(&e))?;
        let len = u32::from_le_bytes(len);
        if len == 0 || len > framing::MAX_FRAME_LEN {
            return Err(WireError::protocol(format!(
                "response frame length {len} out of range"
            )));
        }
        let mut payload = vec![0u8; len as usize];
        self.stream
            .read_exact(&mut payload)
            .map_err(|e| WireError::io(&e))?;
        Ok(payload)
    }

    /// Sends one JSON request (any `PROTOCOL.md` verb) inside a binary
    /// frame and returns the parsed response value.
    ///
    /// # Errors
    ///
    /// `io` on transport failure, `bad_response` on an unparseable or
    /// unexpected reply.
    pub(crate) fn request(&mut self, line: &str) -> Result<Value, WireError> {
        let mut payload = Vec::with_capacity(1 + line.len());
        payload.push(framing::TAG_REQ_JSON);
        payload.extend_from_slice(line.as_bytes());
        self.stream
            .write_all(&framing::frame(&payload))
            .map_err(|e| WireError::io(&e))?;
        let response = self.read_frame()?;
        match response.first() {
            Some(&framing::TAG_RESP_JSON) => {
                let text = std::str::from_utf8(&response[1..])
                    .map_err(|e| WireError::protocol(format!("non-UTF-8 response: {e}")))?;
                serde_json::from_str(text)
                    .map_err(|e| WireError::protocol(format!("unparseable response: {e}")))
            }
            tag => Err(WireError::protocol(format!(
                "unexpected response tag {tag:?} for a JSON request"
            ))),
        }
    }

    /// Sends a JSON request and unwraps the `ok` envelope.
    ///
    /// # Errors
    ///
    /// The server's error code/message when `ok` is `false`, plus the
    /// transport failures of `BinaryClient::request`.
    pub fn request_ok(&mut self, line: &str) -> Result<Value, WireError> {
        check_ok(self.request(line)?)
    }

    /// `predict` in the compact binary encoding: returns
    /// `(class, scores)`, bit-identical to the NDJSON answer.
    ///
    /// # Errors
    ///
    /// As `BinaryClient::request`, plus any server-reported error
    /// (which arrives as a JSON error frame carrying the same stable
    /// codes).
    pub fn predict(&mut self, model: &str, input: &[f32]) -> Result<(usize, Vec<i64>), WireError> {
        let frame = framing::frame_predict_request(model, input);
        self.stream
            .write_all(&frame)
            .map_err(|e| WireError::io(&e))?;
        let response = self.read_frame()?;
        match response.first() {
            Some(&framing::TAG_RESP_PREDICT) => framing::decode_predict_response(&response[1..])
                .map_err(|e| WireError::protocol(format!("bad predict response: {e}"))),
            Some(&framing::TAG_RESP_JSON) => {
                let text = std::str::from_utf8(&response[1..])
                    .map_err(|e| WireError::protocol(format!("non-UTF-8 response: {e}")))?;
                let value: Value = serde_json::from_str(text)
                    .map_err(|e| WireError::protocol(format!("unparseable response: {e}")))?;
                check_ok(value)
                    .map(|_| Err(WireError::protocol("ok envelope on a predict frame")))?
            }
            tag => Err(WireError::protocol(format!(
                "unexpected response tag {tag:?} for a predict frame"
            ))),
        }
    }
}
