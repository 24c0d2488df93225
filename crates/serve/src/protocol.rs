//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! # Grammar
//!
//! Each line is one JSON object. Requests carry an `"op"` discriminator:
//!
//! ```json
//! {"op":"predict","model":"digits","input":[0.0,0.5,...]}
//! {"op":"load","model":"digits","path":"digits.man.json"}
//! {"op":"unload","model":"digits"}
//! {"op":"stats"}            // or {"op":"stats","model":"digits"}
//! {"op":"metrics"}          // Prometheus text page (as a JSON string)
//! {"op":"dump_trace"}       // most recent flight-recorder dump
//! {"op":"health"}           // liveness + loaded models
//! ```
//!
//! Responses always carry `"ok"`:
//!
//! ```json
//! {"ok":true,"model":"digits","class":7,"scores":[-1024,...,3172]}
//! {"ok":true,"model":"digits","bits":8,"input_len":256,"layers":2,"alphabets":"1 {1}"}
//! {"ok":true,"models":[{...stats...}]}
//! {"ok":false,"error":"overloaded","message":"model `digits` is overloaded ..."}
//! ```
//!
//! Error codes are stable strings: `overloaded`, `unknown_model`,
//! `unavailable`, `timeout`, `bad_request`, `shape_mismatch`,
//! `bad_artifact`, `io`, `internal` — plus `frame_too_large`, raised by
//! the reactor front-end when a binary frame's length prefix exceeds
//! [`crate::framing::MAX_FRAME_LEN`] (the connection closes after the
//! error is written; see `PROTOCOL.md`). The same grammar travels
//! unchanged inside binary `TAG_REQ_JSON`/`TAG_RESP_JSON` frames, so
//! codes are identical across both wire modes.
//!
//! Parsing is hand-rolled over the vendored [`serde::Value`] model so
//! optional fields (`"model"` on `stats`) behave leniently and error
//! messages can point at the offending field. The one exception is the
//! canonical `predict` line, the hot path: [`parse_request`] decodes it
//! in one pass straight into a `Vec<f32>` and hands every other line to
//! the `Value` path, [`parse_request_value`], which stays the reference.

use serde::{Serialize, Value};

use man_repro::{ManError, Prediction, ServeError};

use crate::metrics::ModelStats;
use crate::registry::ModelInfo;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run one inference on a named model.
    Predict {
        /// Registry name.
        model: String,
        /// Flat input vector.
        input: Vec<f32>,
    },
    /// Load (or hot-reload) an artifact from a server-side path.
    Load {
        /// Registry name to install under.
        model: String,
        /// Server-side artifact path.
        path: String,
    },
    /// Evict a model.
    Unload {
        /// Registry name.
        model: String,
    },
    /// Metrics snapshot for one model, or all when `model` is `None`.
    Stats {
        /// Optional registry name.
        model: Option<String>,
    },
    /// The Prometheus text page of the unified export plane.
    Metrics,
    /// The most recent flight-recorder dump, if one was triggered.
    DumpTrace,
    /// Liveness + loaded-model summary (`role:"node"`).
    Health,
}

fn protocol_err(msg: impl Into<String>) -> ManError {
    ServeError::Protocol(msg.into()).into()
}

/// First value under `key` in a decoded JSON object (the vendored value
/// model keeps objects as ordered pairs).
pub(crate) fn entry<'v>(obj: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn string_field(obj: &[(String, Value)], key: &str) -> Result<String, ManError> {
    match entry(obj, key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(protocol_err(format!(
            "field `{key}` must be a string, got {}",
            other.kind()
        ))),
        None => Err(protocol_err(format!("missing field `{key}`"))),
    }
}

/// Parses one request line.
///
/// A line in the canonical `predict` shape — exactly
/// `{"op":"predict","model":"<name>","input":[n,...]}`, no whitespace,
/// no escapes in the name, at least one input — is decoded in one pass;
/// every other line, and every line that pass gives up on, goes through
/// [`parse_request_value`]. The two agree on every line: same request,
/// bit-identical inputs, same error.
///
/// # Errors
///
/// [`ServeError::Protocol`] on malformed JSON, a missing/mistyped field
/// or an unknown `"op"`.
pub fn parse_request(line: &str) -> Result<Request, ManError> {
    match parse_canonical_predict(line) {
        Some(request) => Ok(request),
        None => parse_request_value(line),
    }
}

/// What a canonical `predict` line starts with, up to the model name.
const PREDICT_HEAD: &str = r#"{"op":"predict","model":""#;
/// What follows the model name, up to the first input number.
const INPUT_HEAD: &str = r#"","input":["#;
/// What a canonical `predict` line ends with.
const PREDICT_TAIL: &str = "]}";

/// Decodes a canonical `predict` line in one pass, or returns `None` for
/// any other line (which [`parse_request_value`] then parses or rejects).
///
/// Each number is the maximal run of `[0-9.eE+-]` starting at `-` or a
/// digit, the run the vendored JSON parser takes, and is converted as the
/// `Value` path converts it: text with only digits after its first byte
/// reads as `i64`, then `u64`, then `f64`, any other text as `f64`, and
/// the result converts to `f32` with `as`. Text that is no number there
/// returns `None`, so the `Value` path reports the error.
fn parse_canonical_predict(line: &str) -> Option<Request> {
    let rest = line.strip_prefix(PREDICT_HEAD)?;
    let name_len = rest.bytes().position(|b| b == b'"' || b == b'\\')?;
    let (model, rest) = rest.split_at(name_len);
    let mut rest = rest.strip_prefix(INPUT_HEAD)?;
    let commas = rest.bytes().filter(|&b| b == b',').count();
    let mut input = Vec::with_capacity(commas + 1);
    loop {
        let len = rest
            .bytes()
            .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(rest.len());
        let (text, tail) = rest.split_at(len);
        input.push(number_to_f32(text)?);
        match tail.strip_prefix(',') {
            Some(more) => rest = more,
            None if tail == PREDICT_TAIL => break,
            None => return None,
        }
    }
    Some(Request::Predict {
        model: model.to_owned(),
        input,
    })
}

/// One JSON number's text as the `Value` path reads it into an `f32`
/// (`Value::{I64, U64, F64}`, then `Vec<f32>::from_value`); `None` for
/// text that is not a number there.
pub(crate) fn number_to_f32(text: &str) -> Option<f32> {
    let (&first, after) = text.as_bytes().split_first()?;
    if first != b'-' && !first.is_ascii_digit() {
        return None;
    }
    if after.iter().all(u8::is_ascii_digit) {
        if let Ok(n) = text.parse::<i64>() {
            return Some(n as f32);
        }
        if let Ok(n) = text.parse::<u64>() {
            return Some(n as f32);
        }
    }
    text.parse::<f64>().ok().map(|f| f as f32)
}

/// Parses one request line through the generic [`serde::Value`] tree:
/// the reference [`parse_request`] must agree with, and the path it
/// takes for every line outside the canonical `predict` shape.
///
/// # Errors
///
/// As [`parse_request`].
pub fn parse_request_value(line: &str) -> Result<Request, ManError> {
    let value: Value = serde_json::from_str(line.trim())
        .map_err(|e| protocol_err(format!("request is not valid JSON: {e}")))?;
    let obj = value
        .as_object()
        .ok_or_else(|| protocol_err("request must be a JSON object"))?;
    let op = string_field(obj, "op")?;
    match op.as_str() {
        "predict" => {
            let model = string_field(obj, "model")?;
            let input = match entry(obj, "input") {
                Some(v) => <Vec<f32> as serde::Deserialize>::from_value(v)
                    .map_err(|e| protocol_err(format!("field `input`: {e}")))?,
                None => return Err(protocol_err("missing field `input`")),
            };
            Ok(Request::Predict { model, input })
        }
        "load" => Ok(Request::Load {
            model: string_field(obj, "model")?,
            path: string_field(obj, "path")?,
        }),
        "unload" => Ok(Request::Unload {
            model: string_field(obj, "model")?,
        }),
        "stats" => {
            let model = match entry(obj, "model") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => Some(s.clone()),
                Some(other) => {
                    return Err(protocol_err(format!(
                        "field `model` must be a string, got {}",
                        other.kind()
                    )))
                }
            };
            Ok(Request::Stats { model })
        }
        "metrics" => Ok(Request::Metrics),
        "dump_trace" => Ok(Request::DumpTrace),
        "health" => Ok(Request::Health),
        other => Err(protocol_err(format!(
            "unknown op `{other}` (expected predict/load/unload/stats/metrics/dump_trace/health)"
        ))),
    }
}

/// The stable wire code for an error.
pub fn error_code(e: &ManError) -> &'static str {
    match e {
        ManError::Serve(ServeError::Overloaded { .. }) => "overloaded",
        ManError::Serve(ServeError::UnknownModel(_)) => "unknown_model",
        ManError::Serve(ServeError::Unavailable(_)) => "unavailable",
        ManError::Serve(ServeError::Timeout(_)) => "timeout",
        ManError::Serve(ServeError::Protocol(_)) => "bad_request",
        ManError::Serve(ServeError::Internal(_)) => "internal",
        ManError::Shape { .. } => "shape_mismatch",
        ManError::Artifact(_) | ManError::Compile(_) => "bad_artifact",
        ManError::Io(_) => "io",
        _ => "internal",
    }
}

pub(crate) fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("response values contain no non-finite floats")
}

/// Renders an error response line from a raw stable code + message —
/// for front-end conditions that never reach the registry (a too-large
/// binary frame, a full dispatch queue, shutdown). Registry errors go
/// through [`error_response`] so the code mapping stays in one place.
pub(crate) fn raw_error_response(code: &str, message: &str) -> String {
    render(&Value::Object(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::Str(code.into())),
        ("message".into(), Value::Str(message.into())),
    ]))
}

/// Renders an error response line.
pub(crate) fn error_response(e: &ManError) -> String {
    render(&Value::Object(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::Str(error_code(e).into())),
        ("message".into(), Value::Str(e.to_string())),
    ]))
}

/// Renders a successful `predict` response line.
pub fn predict_response(model: &str, prediction: &Prediction) -> String {
    render(&Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("model".into(), Value::Str(model.into())),
        ("class".into(), Value::U64(prediction.class as u64)),
        ("scores".into(), prediction.scores.to_value()),
    ]))
}

/// Renders a successful `load` response line.
pub(crate) fn load_response(info: &ModelInfo) -> String {
    render(&Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("model".into(), Value::Str(info.model.clone())),
        ("bits".into(), Value::U64(u64::from(info.bits))),
        ("input_len".into(), Value::U64(info.input_len as u64)),
        ("layers".into(), Value::U64(info.layers as u64)),
        ("alphabets".into(), Value::Str(info.alphabets.clone())),
    ]))
}

/// Renders a successful `unload` response line.
pub(crate) fn unload_response(model: &str) -> String {
    render(&Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("model".into(), Value::Str(model.into())),
    ]))
}

/// Renders a successful `stats` response line.
pub(crate) fn stats_response(stats: &[ModelStats]) -> String {
    render(&Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("models".into(), stats.to_value()),
    ]))
}

/// Renders a successful `metrics` response line: the Prometheus text
/// page travels as a JSON string (the NDJSON framing cannot carry raw
/// multi-line text), with its content type alongside so a gateway can
/// re-expose it verbatim.
pub(crate) fn metrics_response(page: &str) -> String {
    render(&Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        (
            "content_type".into(),
            Value::Str("text/plain; version=0.0.4".into()),
        ),
        ("body".into(), Value::Str(page.into())),
    ]))
}

/// Renders the `health` response line: liveness plus the loaded
/// model names.
pub(crate) fn health_response(models: &[String]) -> String {
    render(&Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("role".into(), Value::Str("node".into())),
        (
            "models".into(),
            Value::Array(models.iter().map(|m| Value::Str(m.clone())).collect()),
        ),
    ]))
}

/// Renders a successful `dump_trace` response line: the flight
/// recorder's most recent dump embedded as a JSON object, or
/// `"dump":null` when nothing has been triggered (or the obs level is
/// below `Spans`).
pub(crate) fn dump_trace_response(dump: Option<&str>) -> String {
    let embedded = dump
        .and_then(|d| serde_json::from_str(d).ok())
        .unwrap_or(Value::Null);
    render(&Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("dump".into(), embedded),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse() {
        assert_eq!(
            parse_request(r#"{"op":"predict","model":"m","input":[0.5,1]}"#).unwrap(),
            Request::Predict {
                model: "m".into(),
                input: vec![0.5, 1.0]
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"load","model":"m","path":"p.json"}"#).unwrap(),
            Request::Load {
                model: "m".into(),
                path: "p.json".into()
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"unload","model":"m"}"#).unwrap(),
            Request::Unload { model: "m".into() }
        );
        assert_eq!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats { model: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"stats","model":"m"}"#).unwrap(),
            Request::Stats {
                model: Some("m".into())
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"health"}"#).unwrap(),
            Request::Health
        );
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for line in [
            "not json",
            "[1,2]",
            r#"{"model":"m"}"#,
            r#"{"op":"fly"}"#,
            r#"{"op":"join","node":"127.0.0.1:1"}"#,
            r#"{"op":"predict","model":"m"}"#,
            r#"{"op":"predict","model":"m","input":"x"}"#,
            r#"{"op":"load","model":"m"}"#,
            r#"{"op":"stats","model":7}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(error_code(&err), "bad_request", "{line} -> {err}");
        }
    }

    #[test]
    fn error_codes_are_stable() {
        let overloaded: ManError = ServeError::Overloaded {
            model: "m".into(),
            capacity: 4,
        }
        .into();
        assert_eq!(error_code(&overloaded), "overloaded");
        assert_eq!(
            error_code(&ManError::Shape {
                expected: 4,
                got: 2
            }),
            "shape_mismatch"
        );
        let line = error_response(&overloaded);
        assert!(line.contains(r#""ok":false"#) && line.contains(r#""error":"overloaded""#));
    }
}
