//! The compact binary framing (wire format v1) — the high-QPS
//! alternative to NDJSON, negotiated per connection on the same port.
//!
//! See `PROTOCOL.md` for the normative spec. In short:
//!
//! * A binary client opens with an 8-byte handshake: the magic
//!   `MAGIC` (`"MANB"`), its highest supported version byte, and
//!   three reserved zero bytes. The server answers with the same magic
//!   and the version it selected (`min(client, server)`, today always
//!   [`VERSION`]); the connection then speaks length-prefixed frames in
//!   both directions. Anything *not* starting with `b'M'` is treated as
//!   NDJSON — JSON objects start with `{` (or whitespace), so the first
//!   byte disambiguates the two wire modes for free.
//! * A frame is a `u32` little-endian payload length followed by the
//!   payload; the payload's first byte is a tag. Requests:
//!   [`TAG_REQ_JSON`] (the NDJSON grammar, minus the newline) and
//!   `TAG_REQ_PREDICT` (the compact predict encoding). Responses:
//!   [`TAG_RESP_JSON`] (every non-predict response *and* every error)
//!   and [`TAG_RESP_PREDICT`] (class + raw `i64` scores).
//! * Frames longer than [`MAX_FRAME_LEN`] are rejected with the stable
//!   error code `frame_too_large` and the connection is closed — a
//!   4-byte prefix must never make the server allocate unbounded
//!   memory.
//!
//! The compact predict encoding is the point of the exercise: a
//! 256-input predict is ~1 KiB of raw little-endian `f32`s against
//! ~2.5 KiB of JSON text, and decoding is a bounds check plus
//! `from_le_bytes` per value instead of a recursive JSON parse.

use man_repro::Prediction;

/// The 4-byte magic a binary client leads with (`"MANB"`).
pub(crate) const MAGIC: [u8; 4] = *b"MANB";
/// The framing version this server speaks.
pub const VERSION: u8 = 1;
/// Handshake length in bytes (magic + version + 3 reserved zeros).
pub const HANDSHAKE_LEN: usize = 8;
/// Hard cap on one frame's payload. A length prefix beyond this is a
/// protocol violation (`frame_too_large`), not an allocation request.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Request payload tag: UTF-8 JSON body in the NDJSON grammar.
pub const TAG_REQ_JSON: u8 = 0x00;
/// Request payload tag: compact predict body.
pub(crate) const TAG_REQ_PREDICT: u8 = 0x01;
/// Response payload tag: UTF-8 JSON body (all non-predict responses
/// and all errors — error codes stay stable across both wire modes).
pub const TAG_RESP_JSON: u8 = 0x80;
/// Response payload tag: compact predict body (`u32` class, `u32`
/// score count, raw little-endian `i64` scores).
pub const TAG_RESP_PREDICT: u8 = 0x81;

/// Renders the 8-byte handshake for `version`.
pub fn handshake(version: u8) -> [u8; HANDSHAKE_LEN] {
    let mut h = [0u8; HANDSHAKE_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4] = version;
    h
}

/// Validates a client handshake and negotiates the session version:
/// `min(client_version, VERSION)`. Returns `None` on a bad magic, a
/// non-zero reserved byte, or a client version of 0 — the server closes
/// such connections without a reply (there is no agreed framing to
/// carry an error in yet).
pub fn negotiate(client: &[u8; HANDSHAKE_LEN]) -> Option<u8> {
    if client[..4] != MAGIC || client[5..] != [0, 0, 0] || client[4] == 0 {
        return None;
    }
    Some(client[4].min(VERSION))
}

/// Wraps a payload in a length-prefixed frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Wraps a JSON response line (without trailing newline) in a
/// [`TAG_RESP_JSON`] frame.
pub(crate) fn frame_json_response(json: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + json.len());
    payload.push(TAG_RESP_JSON);
    payload.extend_from_slice(json.as_bytes());
    frame(&payload)
}

/// Encodes a compact predict request frame.
pub fn frame_predict_request(model: &str, input: &[f32]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + 2 + model.len() + 4 + 4 * input.len());
    payload.push(TAG_REQ_PREDICT);
    payload.extend_from_slice(&(model.len() as u16).to_le_bytes());
    payload.extend_from_slice(model.as_bytes());
    payload.extend_from_slice(&(input.len() as u32).to_le_bytes());
    for v in input {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    frame(&payload)
}

/// Encodes a compact predict response frame.
pub fn frame_predict_response(prediction: &Prediction) -> Vec<u8> {
    let scores = &prediction.scores;
    let mut payload = Vec::with_capacity(1 + 4 + 4 + 8 * scores.len());
    payload.push(TAG_RESP_PREDICT);
    payload.extend_from_slice(&(prediction.class as u32).to_le_bytes());
    payload.extend_from_slice(&(scores.len() as u32).to_le_bytes());
    for s in scores {
        payload.extend_from_slice(&s.to_le_bytes());
    }
    frame(&payload)
}

/// A decoded compact predict request body.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictRequest {
    /// Registry model name.
    pub model: String,
    /// Flat input vector.
    pub input: Vec<f32>,
}

/// Decodes the body of a `TAG_REQ_PREDICT` payload (everything after
/// the tag byte). Returns a human-readable description of the first
/// malformation on failure.
pub fn decode_predict_request(body: &[u8]) -> Result<PredictRequest, String> {
    let take = |buf: &[u8], n: usize, what: &str| -> Result<(), String> {
        if buf.len() < n {
            return Err(format!(
                "truncated predict body: {what} needs {n} bytes, {} left",
                buf.len()
            ));
        }
        Ok(())
    };
    take(body, 2, "model name length")?;
    let name_len = u16::from_le_bytes([body[0], body[1]]) as usize;
    let rest = &body[2..];
    take(rest, name_len, "model name")?;
    let model = std::str::from_utf8(&rest[..name_len])
        .map_err(|_| "model name is not UTF-8".to_string())?
        .to_owned();
    let rest = &rest[name_len..];
    take(rest, 4, "input count")?;
    let count = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    let rest = &rest[4..];
    // Divide rather than multiply: `4 * count` can overflow usize on
    // 32-bit targets (count is attacker-controlled, up to u32::MAX).
    if !rest.len().is_multiple_of(4) || rest.len() / 4 != count {
        return Err(format!(
            "predict body length mismatch: {count} inputs need {} bytes, got {}",
            4 * count as u64,
            rest.len()
        ));
    }
    let input = rest
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Ok(PredictRequest { model, input })
}

/// Decodes the body of a [`TAG_RESP_PREDICT`] payload (everything after
/// the tag byte) into `(class, scores)`.
pub fn decode_predict_response(body: &[u8]) -> Result<(usize, Vec<i64>), String> {
    if body.len() < 8 {
        return Err("truncated predict response header".into());
    }
    let class = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
    let count = u32::from_le_bytes([body[4], body[5], body[6], body[7]]) as usize;
    let rest = &body[8..];
    // Divide rather than multiply: see `decode_predict_request`.
    if !rest.len().is_multiple_of(8) || rest.len() / 8 != count {
        return Err(format!(
            "predict response length mismatch: {count} scores need {} bytes, got {}",
            8 * count as u64,
            rest.len()
        ));
    }
    let scores = rest
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    Ok((class, scores))
}

/// What [`split_frame`] found at the head of an inbound byte buffer.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum FrameStatus {
    /// Not enough bytes yet for the length prefix or the full payload.
    Incomplete,
    /// A complete payload; the caller should consume `4 + payload.len()`
    /// bytes from the buffer.
    Complete(Vec<u8>),
    /// The length prefix exceeds [`MAX_FRAME_LEN`] (or is zero): the
    /// connection is beyond recovery because the byte stream can no
    /// longer be re-synchronized.
    Violation(String),
}

/// Inspects the head of `buf` for one complete frame without consuming
/// anything.
pub(crate) fn split_frame(buf: &[u8]) -> FrameStatus {
    if buf.len() < 4 {
        return FrameStatus::Incomplete;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len == 0 {
        return FrameStatus::Violation("zero-length frame".into());
    }
    if len > MAX_FRAME_LEN {
        return FrameStatus::Violation(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        ));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return FrameStatus::Incomplete;
    }
    FrameStatus::Complete(buf[4..total].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_negotiates_min_version() {
        assert_eq!(negotiate(&handshake(1)), Some(1));
        assert_eq!(negotiate(&handshake(7)), Some(VERSION));
        assert_eq!(negotiate(&handshake(0)), None);
        let mut bad = handshake(1);
        bad[0] = b'X';
        assert_eq!(negotiate(&bad), None);
        let mut reserved = handshake(1);
        reserved[7] = 1;
        assert_eq!(negotiate(&reserved), None);
    }

    #[test]
    fn predict_request_round_trips() {
        let framed = frame_predict_request("digits", &[0.25, -1.5, 3.0]);
        let FrameStatus::Complete(payload) = split_frame(&framed) else {
            panic!("one whole frame was written");
        };
        assert_eq!(payload[0], TAG_REQ_PREDICT);
        let req = decode_predict_request(&payload[1..]).expect("round trip");
        assert_eq!(req.model, "digits");
        assert_eq!(req.input, vec![0.25, -1.5, 3.0]);
    }

    #[test]
    fn predict_response_round_trips() {
        let p = Prediction {
            class: 3,
            scores: vec![-1024, 0, 77, i64::MAX],
        };
        let framed = frame_predict_response(&p);
        let FrameStatus::Complete(payload) = split_frame(&framed) else {
            panic!("one whole frame was written");
        };
        assert_eq!(payload[0], TAG_RESP_PREDICT);
        let (class, scores) = decode_predict_response(&payload[1..]).expect("round trip");
        assert_eq!(class, 3);
        assert_eq!(scores, p.scores);
    }

    #[test]
    fn split_frame_handles_partial_and_oversized() {
        assert_eq!(split_frame(&[1, 0, 0]), FrameStatus::Incomplete);
        assert_eq!(split_frame(&[2, 0, 0, 0, 9]), FrameStatus::Incomplete);
        assert_eq!(
            split_frame(&[2, 0, 0, 0, 9, 9]),
            FrameStatus::Complete(vec![9, 9])
        );
        assert!(matches!(
            split_frame(&u32::MAX.to_le_bytes()),
            FrameStatus::Violation(_)
        ));
        assert!(matches!(
            split_frame(&[0, 0, 0, 0]),
            FrameStatus::Violation(_)
        ));
    }

    #[test]
    fn malformed_predict_bodies_are_described() {
        assert!(decode_predict_request(&[]).is_err());
        // name_len says 10 but only 2 bytes follow.
        assert!(decode_predict_request(&[10, 0, b'a', b'b']).is_err());
        // count says 2 floats but only 4 bytes follow.
        let mut body = vec![1, 0, b'm'];
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(decode_predict_request(&body).is_err());
        assert!(decode_predict_response(&[1, 2, 3]).is_err());
    }

    #[test]
    fn huge_declared_count_is_an_error_not_an_overflow() {
        // A count of u32::MAX must fail the length check, never feed a
        // `4 * count` / `8 * count` multiply (which would overflow usize
        // on 32-bit targets).
        let mut body = vec![1, 0, b'm'];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&[0u8; 8]);
        assert!(decode_predict_request(&body).is_err());
        let mut resp = Vec::new();
        resp.extend_from_slice(&1u32.to_le_bytes());
        resp.extend_from_slice(&u32::MAX.to_le_bytes());
        resp.extend_from_slice(&[0u8; 16]);
        assert!(decode_predict_response(&resp).is_err());
    }
}
