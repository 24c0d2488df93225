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
    error_response, health_response, load_response, metrics_response, stats_response,
    unload_response, Request,
};
use crate::reactor::{serve_request, FrontendStats, ReactorConfig, ReactorFrontend};
use crate::registry::ModelRegistry;

/// The dispatch seam the front-end serves requests through.
///
/// [`ModelRegistry`] is the one production implementation. The trait
/// exists so a test can put a fake behind the real front-end through
/// [`Server::bind_handler`] — for example a handler that panics, to
/// pin that the front-end answers `internal` and keeps every dispatch
/// thread. Everything above the socket (wire-mode sniffing, framing,
/// request parsing, backpressure, the dispatch pool) stays the real
/// code.
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

    /// Binds the front-end over any [`RequestHandler`] — the seam a test
    /// uses to serve a fake handler through the exact reactor a model
    /// server gets.
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

/// How long a client's read or write may block: past the scheduler's
/// 30 s request timeout, so a live server always answers first, and a
/// server that stops answering fails the call with `io` instead of
/// hanging its caller.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A blocking line-protocol (NDJSON) client for the TCP front-end.
///
/// One request in flight at a time; responses arrive in request order.
/// The reactor sniffs the first byte (a `{`) and speaks NDJSON back.
/// Each request goes out, newline included, in a single `write_all`.
/// A read or write blocked for 60 s fails with `io`.
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
        stream.set_read_timeout(Some(CLIENT_IO_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_IO_TIMEOUT))?;
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
        self.exchange(&bytes)
    }

    /// Writes one newline-terminated request in a single `write_all`
    /// and reads the response line.
    fn exchange(&mut self, bytes: &[u8]) -> Result<Value, WireError> {
        self.writer
            .write_all(bytes)
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
    /// Each input goes out as at most nine significant digits, which the
    /// server reads back to the same `f32` bits (`PROTOCOL.md` §1.1);
    /// the line is built once, newline included, and written as is.
    ///
    /// # Errors
    ///
    /// As [`TcpClient::request`], plus any server-reported error.
    /// A non-finite input is refused with `bad_response` before anything
    /// is sent: JSON has no spelling for it.
    pub fn predict(&mut self, model: &str, input: &[f32]) -> Result<(usize, Vec<i64>), WireError> {
        let value = check_ok(self.exchange(&predict_line(model, input)?)?)?;
        let obj = value.as_object().expect("check_ok returns objects");
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

/// Renders a `predict` request line, trailing newline included, as the
/// bytes `TcpClient::predict` sends: the model name as `serde_json`
/// escapes it, then each input through [`push_f32`].
///
/// # Errors
///
/// `bad_response` with `serde_json`'s message for a NaN or infinite
/// input.
fn predict_line(model: &str, input: &[f32]) -> Result<Vec<u8>, WireError> {
    let model = serde_json::to_string(model).expect("a string always renders");
    let mut line = Vec::with_capacity(40 + model.len() + (MAX_F32_LEN + 1) * input.len());
    line.extend_from_slice(br#"{"op":"predict","model":"#);
    line.extend_from_slice(model.as_bytes());
    line.extend_from_slice(br#","input":["#);
    for (i, &x) in input.iter().enumerate() {
        if !x.is_finite() {
            return Err(WireError::protocol(
                "JSON cannot represent a non-finite float",
            ));
        }
        if i > 0 {
            line.push(b',');
        }
        push_f32(&mut line, x);
    }
    line.extend_from_slice(b"]}\n");
    Ok(line)
}

/// The longest text [`push_f32`] writes: `-0.0000` and nine digits.
const MAX_F32_LEN: usize = 16;

/// `10^0 ..= 10^22`, every one exact in `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// `"00" ..= "99"`: two decimal digits per lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// `v * 10^s`, in at most three correctly rounded steps.
fn scale_pow10(mut v: f64, mut s: i32) -> f64 {
    while s > 22 {
        v *= POW10[22];
        s -= 22;
    }
    while s < -22 {
        v /= POW10[22];
        s += 22;
    }
    if s >= 0 {
        v * POW10[s as usize]
    } else {
        v / POW10[-s as usize]
    }
}

/// Appends finite `x` as a JSON number of at most nine significant
/// digits, trailing zeros trimmed: `0.000ddd` for decimal exponents
/// −5..=−1, `d.ddd` for 0 and `d.ddde±k` otherwise; `±0` is `0.0` or
/// `-0.0`.
///
/// The text is within `5·10⁻⁹` of `x` relative, plus a few `f64`
/// rounding steps, and half an `f32` ulp is at least `2⁻²⁵ ≈ 2.98·10⁻⁸`
/// relative, so `text.parse::<f64>() as f32` (the server's reading) is
/// `x`'s exact bits. It need not be the shortest such text. Rounding is
/// `+ 0.5` and a truncating cast: `f64::round` and `floor` are libm
/// calls on the default x86-64 target.
fn push_f32(out: &mut Vec<u8>, x: f32) {
    let mut buf = [0u8; MAX_F32_LEN];
    let mut len = 0;
    if x.is_sign_negative() {
        buf[0] = b'-';
        len = 1;
    }
    let v = f64::from(x.abs());
    if v == 0.0 {
        buf[len..len + 3].copy_from_slice(b"0.0");
        out.extend_from_slice(&buf[..len + 3]);
        return;
    }
    // floor(log10(v)) from the binary exponent (every nonzero f32 is a
    // normal f64), possibly one short; the scaled value says which.
    let e2 = ((v.to_bits() >> 52) as i32) - 1023;
    let mut k = (e2 * 78_913) >> 18;
    let mut scaled = scale_pow10(v, 8 - k);
    if scaled >= 1e9 {
        k += 1;
        scaled /= 10.0;
    }
    let mut m = (scaled + 0.5) as u32;
    if m == 1_000_000_000 {
        // Rounded up to the next power of ten.
        k += 1;
        m = 100_000_000;
    }

    let mut digits = [0u8; 9];
    digits[0] = b'0' + (m / 100_000_000) as u8;
    let mut rest = m % 100_000_000;
    for at in [7, 5, 3, 1] {
        let pair = (rest % 100) as usize * 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        rest /= 100;
    }
    // digits[0] is never '0', so at least one digit stays.
    let n = 9 - digits.iter().rev().take_while(|&&d| d == b'0').count();

    if (-5..=-1).contains(&k) {
        let zeros = (-k - 1) as usize;
        buf[len..len + 2 + zeros].copy_from_slice(&b"0.0000"[..2 + zeros]);
        len += 2 + zeros;
        buf[len..len + n].copy_from_slice(&digits[..n]);
        len += n;
    } else {
        buf[len] = digits[0];
        buf[len + 1] = b'.';
        len += 2;
        if n == 1 {
            buf[len] = b'0';
            len += 1;
        } else {
            buf[len..len + n - 1].copy_from_slice(&digits[1..n]);
            len += n - 1;
        }
        if k != 0 {
            buf[len] = b'e';
            len += 1;
            if k < 0 {
                buf[len] = b'-';
                len += 1;
            }
            let k = k.unsigned_abs() as usize;
            if k >= 10 {
                buf[len..len + 2].copy_from_slice(&DIGIT_PAIRS[2 * k..2 * k + 2]);
                len += 2;
            } else {
                buf[len] = b'0' + k as u8;
                len += 1;
            }
        }
    }
    out.extend_from_slice(&buf[..len]);
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
    /// Connects and performs the binary-framing handshake. A read or
    /// write blocked for 60 s fails with `io`.
    ///
    /// # Errors
    ///
    /// `io` on transport failure; `bad_response` if the server answers
    /// with anything but a valid `MANB` handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        let mut stream = TcpStream::connect(addr).map_err(|e| WireError::io(&e))?;
        stream
            .set_read_timeout(Some(CLIENT_IO_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(CLIENT_IO_TIMEOUT)))
            .map_err(|e| WireError::io(&e))?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{number_to_f32, parse_request, parse_request_value};

    fn render(x: f32) -> String {
        let mut out = Vec::new();
        push_f32(&mut out, x);
        String::from_utf8(out).expect("ASCII")
    }

    /// Asserts every input reads back to its own bits through
    /// `parse::<f64>() as f32`, and that both request parsers decode a
    /// client line of them to that model and bit-identical inputs.
    fn assert_exact(inputs: &[f32]) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &x in inputs {
            let text = render(x);
            let back = text.parse::<f64>().expect("a number") as f32;
            assert_eq!(back.to_bits(), x.to_bits(), "{x:e} rendered as {text}");
        }
        for chunk in inputs.chunks(1024) {
            let line = predict_line("m", chunk).expect("finite inputs");
            let line = std::str::from_utf8(&line).expect("ASCII");
            let line = line.strip_suffix('\n').expect("newline-terminated");
            for parsed in [parse_request(line), parse_request_value(line)] {
                match parsed.expect("a valid predict line") {
                    Request::Predict { model, input } => {
                        assert_eq!(model, "m");
                        assert_eq!(bits(&input), bits(chunk), "{line}");
                    }
                    other => panic!("not a predict: {other:?}"),
                }
            }
        }
    }

    /// Both signs of every finite `f32` in `bits` (sign bit ignored).
    fn signed(bits: impl IntoIterator<Item = u32>) -> Vec<f32> {
        bits.into_iter()
            .flat_map(|b| [b & 0x7fff_ffff, b | 0x8000_0000])
            .map(f32::from_bits)
            .filter(|x| x.is_finite())
            .collect()
    }

    #[test]
    fn predict_line_inputs_read_back_bit_exactly() {
        // Every exponent, subnormals included, crossed with the mantissa
        // edges.
        let mantissas = [
            0,
            1,
            2,
            3,
            (1 << 22) - 1,
            1 << 22,
            (1 << 22) + 1,
            (1 << 23) - 3,
            (1 << 23) - 2,
            (1 << 23) - 1,
        ];
        assert_exact(&signed(
            (0..255_u32).flat_map(|e| mantissas.iter().map(move |m| e << 23 | m)),
        ));
        // Each power of ten's nearest f32 and its four neighbours either
        // side, where the decimal exponent changes.
        assert_exact(&signed((-45..=38).flat_map(|k| {
            let ten = format!("1e{k}").parse::<f32>().expect("a number").to_bits();
            ten.saturating_sub(4)..=ten + 4
        })));
        // The two values whose f32 shortest form does not survive f64.
        assert_exact(&signed([0x15ae_43fd]));
        // Seeded random bit patterns (SplitMix64).
        let mut state = 0x7072_6564_6963_7431_u64;
        let random = (0..1 << 20).map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u32
        });
        let random: Vec<f32> = random
            .map(f32::from_bits)
            .filter(|x| x.is_finite())
            .collect();
        assert_exact(&random);
        // The spellings of the edges.
        for (x, text) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (1.0, "1.0"),
            (0.5, "0.5"),
            (-0.25, "-0.25"),
            (0.001_953_125, "0.001953125"),
            (1.0 / 32_768.0, "0.0000305175781"),
            (1.0 / 1_048_576.0, "9.53674316e-7"),
            (1e-6, "9.99999997e-7"),
            (255.0, "2.55e2"),
            (f32::MAX, "3.40282347e38"),
            (f32::from_bits(1), "1.40129846e-45"),
        ] {
            assert_eq!(render(x), text);
        }
    }

    /// All 2³² bit patterns, split across the host's cores. Run it in
    /// release: `cargo test --release -p man-serve --lib predict_line --
    /// --ignored`.
    #[test]
    #[ignore = "exhaustive: minutes in release"]
    fn predict_line_renders_every_finite_f32_exactly() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1_u64 << 32).div_ceil(threads);
        let (finite, wrong) = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let (mut finite, mut wrong) = (0_u64, Vec::new());
                        let mut text = Vec::with_capacity(MAX_F32_LEN);
                        for bits in t * span..((t + 1) * span).min(1 << 32) {
                            let x = f32::from_bits(bits as u32);
                            if !x.is_finite() {
                                continue;
                            }
                            finite += 1;
                            text.clear();
                            push_f32(&mut text, x);
                            let text = std::str::from_utf8(&text).expect("ASCII");
                            if number_to_f32(text).map(f32::to_bits) != Some(x.to_bits()) {
                                wrong.push(bits);
                            }
                        }
                        (finite, wrong)
                    })
                })
                .collect();
            workers.into_iter().fold((0, Vec::new()), |(n, mut w), h| {
                let (finite, wrong) = h.join().expect("sweep thread");
                w.extend(wrong);
                (n + finite, w)
            })
        });
        assert_eq!(finite, 4_278_190_080);
        assert!(
            wrong.is_empty(),
            "{} mismatches, first {:#x?}",
            wrong.len(),
            &wrong[..wrong.len().min(8)]
        );
    }
}
