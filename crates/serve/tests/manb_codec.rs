//! The MANB binary framing against hostile bytes.
//!
//! * Handshake: `negotiate` over every version byte, with every single
//!   corruption of the magic and of the reserved bytes.
//! * Predict bodies: `decode_predict_request` and
//!   `decode_predict_response` on every truncation of valid bodies, on
//!   count fields that lie by ±1 or read `u32::MAX`, and on seeded
//!   random byte edits. Neither may panic; every truncation and every
//!   lying element count is an error; any `Ok` re-encodes to exactly
//!   the bytes it was decoded from.
//! * Over loopback: an unknown request tag, and a truncated predict body
//!   inside a complete frame, each get `bad_request`, and the same
//!   connection then answers a valid predict (PROTOCOL.md: the
//!   connection stays open). So does a JSON frame nested 200,000 deep.
//!
//! Seeded and std-only, with a fixed budget: the same bytes every run.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use man::alphabet::AlphabetSet;
use man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use man_nn::network::Network;
use man_repro::{CompiledModel, Pipeline, Prediction};
use man_serve::framing::{
    self, decode_predict_request, decode_predict_response, frame_predict_request,
    frame_predict_response, handshake, negotiate, HANDSHAKE_LEN, TAG_REQ_JSON, TAG_RESP_JSON,
    TAG_RESP_PREDICT, VERSION,
};
use man_serve::{BatchConfig, ModelRegistry, Server};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64: a tiny seeded generator, so the corpus needs no crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Seeded random byte edits of valid bodies, spread over both codecs.
const EDITS: usize = 4000;

/// The payload of a framed message, without its 4-byte length prefix
/// and tag byte: the body the decoders take.
fn body_of(framed: &[u8]) -> &[u8] {
    &framed[5..]
}

/// Valid predict request bodies: empty, short, multi-byte and long
/// model names; no, one and many inputs, with arbitrary bit patterns
/// (NaNs and infinities included — the codec carries bits, not values).
fn request_bodies(rng: &mut Rng) -> Vec<Vec<u8>> {
    let names = ["", "m", "digits-8bit", "модель", &"x".repeat(300)];
    let mut bodies = Vec::new();
    for (i, name) in names.iter().enumerate() {
        for len in [0usize, 1, 3, 64] {
            let input: Vec<f32> = (0..len)
                .map(|j| match (i + j) % 3 {
                    0 => f32::from_bits(rng.next() as u32),
                    1 => j as f32 / 7.0,
                    _ => f32::NAN,
                })
                .collect();
            bodies.push(body_of(&frame_predict_request(name, &input)).to_vec());
        }
    }
    bodies
}

/// Valid predict response bodies: no, one and many scores, with the
/// `i64` extremes among them.
fn response_bodies(rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut bodies = Vec::new();
    for (class, len) in [(0usize, 0usize), (3, 1), (9, 10), (u32::MAX as usize, 64)] {
        let mut scores: Vec<i64> = (0..len).map(|_| rng.next() as i64).collect();
        if len >= 2 {
            scores[0] = i64::MIN;
            scores[1] = i64::MAX;
        }
        let p = Prediction { class, scores };
        bodies.push(body_of(&frame_predict_response(&p)).to_vec());
    }
    bodies
}

/// Decodes a request body; an `Ok` must re-encode to the same bytes.
fn request_verdict(body: &[u8]) -> bool {
    match decode_predict_request(body) {
        Ok(req) => {
            let again = frame_predict_request(&req.model, &req.input);
            assert_eq!(body_of(&again), body, "request re-encodes differently");
            true
        }
        Err(why) => {
            assert!(!why.is_empty(), "an error names its malformation");
            false
        }
    }
}

/// Decodes a response body; an `Ok` must re-encode to the same bytes.
fn response_verdict(body: &[u8]) -> bool {
    match decode_predict_response(body) {
        Ok((class, scores)) => {
            let again = frame_predict_response(&Prediction { class, scores });
            assert_eq!(body_of(&again), body, "response re-encodes differently");
            true
        }
        Err(why) => {
            assert!(!why.is_empty(), "an error names its malformation");
            false
        }
    }
}

/// `body` with the little-endian `u32` at `at` replaced by `value`.
fn with_u32(body: &[u8], at: usize, value: u32) -> Vec<u8> {
    let mut out = body.to_vec();
    out[at..at + 4].copy_from_slice(&value.to_le_bytes());
    out
}

/// The values a count field of `count` can lie with: one more, one less
/// (when there is one less) and `u32::MAX`.
fn lies(count: u32) -> Vec<u32> {
    let mut out = vec![count + 1, u32::MAX];
    if count > 0 {
        out.push(count - 1);
    }
    out
}

/// One seeded edit: overwrite, insert or delete a byte, or cut the
/// tail.
fn edit(rng: &mut Rng, body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    let at = rng.below(out.len() + 1);
    match rng.below(4) {
        0 if at < out.len() => out[at] = rng.next() as u8,
        1 => out.insert(at, rng.next() as u8),
        2 if at < out.len() => {
            out.remove(at);
        }
        _ => out.truncate(at),
    }
    out
}

#[test]
fn negotiate_accepts_only_the_magic_with_zero_reserved_bytes() {
    for version in 0..=u8::MAX {
        let hello = handshake(version);
        let want = (version != 0).then(|| version.min(VERSION));
        assert_eq!(negotiate(&hello), want, "version {version}");
        // Any one byte of the magic or of the reserved tail changed to
        // any other value is refused.
        for at in (0..HANDSHAKE_LEN).filter(|&i| i != 4) {
            for value in (0..=u8::MAX).filter(|&b| b != hello[at]) {
                let mut bad = hello;
                bad[at] = value;
                assert_eq!(
                    negotiate(&bad),
                    None,
                    "version {version}, byte {at} = {value}"
                );
            }
        }
    }
}

#[test]
fn request_bodies_survive_truncation_lies_and_edits() {
    let mut rng = Rng(0x4d41_4e42);
    let bodies = request_bodies(&mut rng);
    for body in &bodies {
        assert!(request_verdict(body), "a valid body decodes");
        for cut in 0..body.len() {
            assert!(
                !request_verdict(&body[..cut]),
                "truncation at {cut} decodes"
            );
        }
        let name_len = u16::from_le_bytes([body[0], body[1]]) as usize;
        let count_at = 2 + name_len;
        let count = u32::from_le_bytes(body[count_at..count_at + 4].try_into().unwrap());
        for lie in lies(count) {
            assert!(
                !request_verdict(&with_u32(body, count_at, lie)),
                "input count {lie} for {count} inputs decodes"
            );
        }
        // A lying name length shifts where the count is read from: it
        // must not panic, and whatever it decodes must re-encode.
        for lie in [
            name_len + 1,
            name_len.wrapping_sub(1),
            usize::from(u16::MAX),
        ] {
            let mut lied = body.clone();
            lied[..2].copy_from_slice(&(lie as u16).to_le_bytes());
            request_verdict(&lied);
        }
    }
    for _ in 0..EDITS / 2 {
        let body = &bodies[rng.below(bodies.len())];
        request_verdict(&edit(&mut rng, body));
    }
}

#[test]
fn response_bodies_survive_truncation_lies_and_edits() {
    let mut rng = Rng(0x4d41_4e43);
    let bodies = response_bodies(&mut rng);
    for body in &bodies {
        assert!(response_verdict(body), "a valid body decodes");
        for cut in 0..body.len() {
            assert!(
                !response_verdict(&body[..cut]),
                "truncation at {cut} decodes"
            );
        }
        let count = u32::from_le_bytes(body[4..8].try_into().unwrap());
        for lie in lies(count) {
            assert!(
                !response_verdict(&with_u32(body, 4, lie)),
                "score count {lie} for {count} scores decodes"
            );
        }
    }
    for _ in 0..EDITS / 2 {
        let body = &bodies[rng.below(bodies.len())];
        response_verdict(&edit(&mut rng, body));
    }
}

const IN_DIM: usize = 12;

fn compiled_model() -> CompiledModel {
    let mut rng = SmallRng::seed_from_u64(0x4d41_4e42);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(IN_DIM, 8, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(8, 3, &mut rng)),
    ]);
    Pipeline::from_network(net)
        .with_bits(8)
        .with_alphabets(vec![AlphabetSet::a2()])
        .constrain()
        .expect("projection-only pipeline")
        .compile()
        .expect("projected weights compile")
}

fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("frame length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("frame payload");
    payload
}

/// Sends `frame` and asserts a `TAG_RESP_JSON` `bad_request` answer.
fn expect_bad_request(stream: &mut TcpStream, frame: &[u8], what: &str) {
    stream.write_all(frame).expect("write frame");
    let reply = read_frame(stream);
    assert_eq!(reply[0], TAG_RESP_JSON, "{what}: a JSON error frame");
    let text = std::str::from_utf8(&reply[1..]).expect("UTF-8 reply");
    assert!(
        text.contains(r#""error":"bad_request""#),
        "{what}: expected bad_request, got {text}"
    );
}

/// Sends a valid predict and asserts the oracle's answer.
fn expect_prediction(stream: &mut TcpStream, model: &CompiledModel, input: &[f32], after: &str) {
    stream
        .write_all(&frame_predict_request("m", input))
        .expect("write predict");
    let reply = read_frame(stream);
    assert_eq!(
        reply[0], TAG_RESP_PREDICT,
        "predict after {after} is answered"
    );
    let (_, scores) = decode_predict_response(&reply[1..]).expect("predict reply decodes");
    assert_eq!(scores, model.fixed().infer_raw(input), "after {after}");
}

#[test]
fn malformed_frames_get_bad_request_and_the_connection_stays_open() {
    let model = compiled_model();
    let registry = ModelRegistry::new(BatchConfig::default());
    registry.install("m", model.clone());
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&registry)).expect("server binds");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(&handshake(VERSION)).expect("handshake");
    let mut hello = [0u8; HANDSHAKE_LEN];
    stream.read_exact(&mut hello).expect("handshake reply");
    assert_eq!(hello, handshake(VERSION));

    let input: Vec<f32> = (0..IN_DIM).map(|i| i as f32 / IN_DIM as f32).collect();
    let valid = frame_predict_request("m", &input);
    let predict_tag = valid[4];
    for tag in [0x02u8, 0x7f, TAG_RESP_JSON, TAG_RESP_PREDICT, 0xff] {
        assert_ne!(tag, predict_tag);
        expect_bad_request(&mut stream, &framing::frame(&[tag, 1, 2, 3]), "unknown tag");
        expect_prediction(&mut stream, &model, &input, "an unknown tag");
    }
    // Whole frames whose payload (tag, 2-byte name length, 1-byte
    // name, 4-byte count, inputs) is cut short: before and inside the
    // name length, before the name, inside the count and inside the
    // inputs.
    for cut in [1, 2, 3, 6, 13] {
        let truncated = framing::frame(&valid[4..4 + cut]);
        expect_bad_request(&mut stream, &truncated, "truncated predict body");
        expect_prediction(&mut stream, &model, &input, "a truncated predict body");
    }
    // Parsed by recursion, JSON nested 200,000 deep would overflow the
    // parsing thread's stack and abort the server.
    let mut deep = vec![TAG_REQ_JSON];
    deep.extend_from_slice(br#"{"op":"predict","model":"m","input":"#);
    deep.extend(std::iter::repeat_n(b'[', 200_000));
    deep.extend(std::iter::repeat_n(b']', 200_000));
    deep.push(b'}');
    expect_bad_request(&mut stream, &framing::frame(&deep), "deep nesting");
    expect_prediction(&mut stream, &model, &input, "a deeply nested frame");

    server.shutdown();
    registry.shutdown();
}
