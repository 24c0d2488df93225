//! End-to-end tests of the reactor front-end and the binary framing:
//! wire-mode negotiation, slow-loris partial frames, oversized length
//! prefixes, mid-frame disconnects, NDJSON↔binary interleaving on one
//! server, backpressure, and reload-under-load through the reactor.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use man::alphabet::AlphabetSet;
use man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use man_nn::network::Network;
use man_repro::{CompiledModel, ManError, Pipeline, Prediction};
use man_serve::protocol::Request;
use man_serve::{
    framing, BatchConfig, BinaryClient, ModelRegistry, ReactorConfig, RequestHandler, Server,
    TcpClient,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const IN_DIM: usize = 24;

fn compiled_model(seed: u64, set: AlphabetSet) -> CompiledModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(IN_DIM, 12, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(12, 4, &mut rng)),
    ]);
    Pipeline::from_network(net)
        .with_bits(8)
        .with_alphabets(vec![set])
        .constrain()
        .expect("projection-only pipeline")
        .compile()
        .expect("projected weights compile")
}

fn probe_input(i: usize) -> Vec<f32> {
    (0..IN_DIM)
        .map(|j| ((i * 7 + j * 3) % 13) as f32 / 13.0)
        .collect()
}

fn quick_config() -> BatchConfig {
    BatchConfig {
        max_batch: 8,
        queue_capacity: 64,
        ..BatchConfig::default()
    }
}

fn reactor_server(registry: Arc<ModelRegistry>) -> Server {
    Server::bind("127.0.0.1:0", registry).expect("reactor server binds")
}

#[test]
fn reactor_is_the_default_mode() {
    let server =
        Server::bind("127.0.0.1:0", ModelRegistry::with_defaults()).expect("default server binds");
    assert_eq!(server.frontend_stats().mode, "reactor");
}

#[test]
fn ndjson_roundtrip_through_reactor() {
    let model = compiled_model(3, AlphabetSet::a1());
    let registry = ModelRegistry::new(quick_config());
    registry.install("m", model.clone());
    let reference = model.session();
    let mut server = reactor_server(Arc::clone(&registry));

    let mut tcp = TcpClient::connect(server.local_addr()).expect("connect");
    for i in 0..8 {
        let (class, scores) = tcp.predict("m", &probe_input(i)).expect("predict");
        let expected = reference.infer(&probe_input(i)).expect("shape ok");
        assert_eq!(class, expected.class);
        assert_eq!(scores, expected.scores, "reactor must stay bit-identical");
    }
    // Typed error, connection kept.
    let err = tcp.predict("m", &[0.1; 3]).expect_err("short input");
    assert_eq!(err.code, "shape_mismatch");
    let (_, _) = tcp.predict("m", &probe_input(0)).expect("conn survives");
    // Parsed by recursion, a line nested 200,000 deep would overflow the
    // parsing thread's stack and abort the server.
    let (open, close) = ("[".repeat(200_000), "]".repeat(200_000));
    let deep = format!(r#"{{"op":"predict","model":"m","input":{open}{close}}}"#);
    let reply = serde_json::to_string(&tcp.request(&deep).expect("a reply")).expect("renders");
    assert!(reply.contains(r#""error":"bad_request""#), "{reply}");
    let (_, scores) = tcp.predict("m", &probe_input(1)).expect("conn survives");
    assert_eq!(scores, model.fixed().infer_raw(&probe_input(1)));
    // `join` is no verb of this server: an unknown op, connection kept.
    let join = r#"{"op":"join","node":"127.0.0.1:1"}"#;
    let reply = serde_json::to_string(&tcp.request(join).expect("a reply")).expect("renders");
    assert!(reply.contains(r#""error":"bad_request""#), "{reply}");
    let (_, scores) = tcp.predict("m", &probe_input(2)).expect("conn survives");
    assert_eq!(scores, model.fixed().infer_raw(&probe_input(2)));

    let stats = server.frontend_stats();
    assert_eq!(stats.mode, "reactor");
    assert!(stats.accepted_conns >= 1);
    assert!(stats.slab_high_water >= 1);
    assert_eq!(stats.ndjson_conns, 1);
    server.shutdown();
    registry.shutdown();
}

/// A handler whose predict panics on the model `boom` and answers every
/// other model with `class` = input length and one fixed score.
struct PanicsOnBoom;

impl RequestHandler for PanicsOnBoom {
    fn handle(&self, _request: Request) -> String {
        r#"{"ok":true}"#.to_owned()
    }

    fn handle_predict(&self, model: &str, input: Vec<f32>) -> Result<Prediction, ManError> {
        assert_ne!(model, "boom", "a handler bug");
        Ok(Prediction {
            class: input.len(),
            scores: vec![7],
        })
    }
}

#[test]
fn a_panicking_handler_answers_internal_and_keeps_every_dispatch_thread() {
    let config = ReactorConfig::default();
    // More panics per wire mode than there are dispatch threads: one
    // that killed its thread would leave the next request unanswered.
    let panics = config.dispatch_threads + 2;
    let mut server =
        Server::bind_handler("127.0.0.1:0", Arc::new(PanicsOnBoom), config).expect("server binds");
    let mut ndjson = TcpClient::connect(server.local_addr()).expect("ndjson connect");
    let mut binary = BinaryClient::connect(server.local_addr()).expect("binary handshake");
    let json_boom = r#"{"op":"predict","model":"boom","input":[0.5]}"#;
    for _ in 0..panics {
        let err = ndjson
            .predict("boom", &[0.5])
            .expect_err("the handler panics");
        assert_eq!(err.code, "internal", "{err}");
        let answer = ndjson
            .predict("m", &[0.5, 1.0])
            .expect("the connection answers");
        assert_eq!(answer, (2, vec![7]));

        let err = binary
            .predict("boom", &[0.5])
            .expect_err("the handler panics");
        assert_eq!(err.code, "internal", "{err}");
        let err = binary
            .request_ok(json_boom)
            .expect_err("the handler panics");
        assert_eq!(err.code, "internal", "{err}");
        let answer = binary.predict("m", &[0.5]).expect("the connection answers");
        assert_eq!(answer, (1, vec![7]));
    }
    server.shutdown();
}

#[test]
fn binary_and_ndjson_clients_interleave_bit_identically() {
    let registry = ModelRegistry::new(quick_config());
    registry.install("m", compiled_model(4, AlphabetSet::a2()));
    let mut server = reactor_server(Arc::clone(&registry));

    let mut ndjson = TcpClient::connect(server.local_addr()).expect("ndjson connect");
    let mut binary = BinaryClient::connect(server.local_addr()).expect("binary handshake");
    assert_eq!(binary.version(), framing::VERSION);

    for i in 0..16 {
        let (jc, js) = ndjson
            .predict("m", &probe_input(i))
            .expect("ndjson predict");
        let (bc, bs) = binary
            .predict("m", &probe_input(i))
            .expect("binary predict");
        assert_eq!(jc, bc, "class must match across wire modes");
        assert_eq!(js, bs, "scores must be bit-identical across wire modes");
    }
    // Non-predict verbs ride JSON frames on the binary connection.
    let stats = binary
        .request_ok(r#"{"op":"stats","model":"m"}"#)
        .expect("stats");
    assert!(stats.as_object().is_some());
    // Errors carry the same stable codes on both wires.
    let jerr = ndjson
        .predict("nope", &probe_input(0))
        .expect_err("unknown");
    let berr = binary
        .predict("nope", &probe_input(0))
        .expect_err("unknown");
    assert_eq!(jerr.code, "unknown_model");
    assert_eq!(berr.code, "unknown_model");

    let fe = server.frontend_stats();
    assert_eq!(fe.ndjson_conns, 1);
    assert_eq!(fe.binary_conns, 1);
    server.shutdown();
    registry.shutdown();
}

#[test]
fn slow_loris_partial_frames_are_served_once_complete() {
    let registry = ModelRegistry::new(quick_config());
    registry.install("m", compiled_model(5, AlphabetSet::a1()));
    let reference = compiled_model(5, AlphabetSet::a1()).session();
    let server = reactor_server(Arc::clone(&registry));

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // Dribble the handshake one byte at a time.
    for b in framing::handshake(framing::VERSION) {
        stream.write_all(&[b]).expect("write");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut hello = [0u8; framing::HANDSHAKE_LEN];
    stream.read_exact(&mut hello).expect("handshake reply");
    assert_eq!(framing::negotiate(&hello), Some(framing::VERSION));

    // Dribble a predict frame in 3-byte chunks; the reactor must hold
    // the partial frame and answer only once it completes.
    let frame = framing::frame_predict_request("m", &probe_input(1));
    for chunk in frame.chunks(3) {
        stream.write_all(chunk).expect("write chunk");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("response length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("response payload");
    assert_eq!(payload[0], framing::TAG_RESP_PREDICT);
    let (class, scores) = framing::decode_predict_response(&payload[1..]).expect("decodes");
    let expected = reference.infer(&probe_input(1)).expect("shape ok");
    assert_eq!(class, expected.class);
    assert_eq!(scores, expected.scores);
    registry.shutdown();
}

#[test]
fn oversized_length_prefix_gets_stable_code_and_close() {
    let registry = ModelRegistry::new(quick_config());
    let server = reactor_server(Arc::clone(&registry));

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&framing::handshake(1)).expect("handshake");
    let mut hello = [0u8; framing::HANDSHAKE_LEN];
    stream.read_exact(&mut hello).expect("handshake reply");
    // A length prefix beyond MAX_FRAME_LEN must be rejected without the
    // server ever allocating the claimed size.
    stream
        .write_all(&(framing::MAX_FRAME_LEN + 1).to_le_bytes())
        .expect("bad prefix");
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("error frame length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream
        .read_exact(&mut payload)
        .expect("error frame payload");
    assert_eq!(payload[0], framing::TAG_RESP_JSON);
    let body = std::str::from_utf8(&payload[1..]).expect("utf8");
    assert!(
        body.contains(r#""error":"frame_too_large""#),
        "stable code expected, got: {body}"
    );
    // ... and the connection must then close.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("EOF after violation");
    assert!(rest.is_empty());
    registry.shutdown();
}

#[test]
fn bad_handshake_closes_without_reply() {
    let registry = ModelRegistry::with_defaults();
    let server = reactor_server(Arc::clone(&registry));
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // Starts with 'M' so it sniffs as binary, but the magic is wrong.
    stream.write_all(b"MXXB\x01\0\0\0").expect("bad magic");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("EOF");
    assert!(rest.is_empty(), "no reply exists for an unframed stream");
    registry.shutdown();
}

#[test]
fn mid_frame_disconnect_is_cleaned_up() {
    let registry = ModelRegistry::new(quick_config());
    registry.install("m", compiled_model(6, AlphabetSet::a1()));
    let mut server = reactor_server(Arc::clone(&registry));

    {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(&framing::handshake(1)).expect("handshake");
        let mut hello = [0u8; framing::HANDSHAKE_LEN];
        stream.read_exact(&mut hello).expect("handshake reply");
        let frame = framing::frame_predict_request("m", &probe_input(0));
        // Half a frame, then vanish.
        stream.write_all(&frame[..frame.len() / 2]).expect("half");
    } // drop = RST/FIN mid-frame

    // The slot must be reclaimed and the server fully functional.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.frontend_stats().open_conns > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "mid-frame disconnect must release its slab slot"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut binary = BinaryClient::connect(server.local_addr()).expect("fresh client");
    binary.predict("m", &probe_input(2)).expect("still serving");
    server.shutdown();
    registry.shutdown();
}

#[test]
fn pipelined_ndjson_lines_all_get_answers_in_order() {
    let registry = ModelRegistry::new(quick_config());
    registry.install("m", compiled_model(7, AlphabetSet::a1()));
    let server = reactor_server(Arc::clone(&registry));

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // Burst 20 requests in one write, then half-close: every line must
    // still be answered, in order, before the server closes.
    let mut burst = String::new();
    for i in 0..20 {
        let input: Vec<String> = probe_input(i).iter().map(f32::to_string).collect();
        burst.push_str(&format!(
            "{{\"op\":\"predict\",\"model\":\"m\",\"input\":[{}]}}\n",
            input.join(",")
        ));
    }
    stream.write_all(burst.as_bytes()).expect("burst write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut all = String::new();
    stream.read_to_string(&mut all).expect("drain responses");
    let lines: Vec<&str> = all.lines().collect();
    assert_eq!(lines.len(), 20, "every pipelined request gets a reply");
    for line in lines {
        assert!(line.contains(r#""ok":true"#), "unexpected reply: {line}");
    }
    registry.shutdown();
}

#[test]
fn reload_under_load_through_reactor() {
    let registry = ModelRegistry::new(quick_config());
    registry.install("m", compiled_model(8, AlphabetSet::a1()));
    let mut server = reactor_server(Arc::clone(&registry));
    let addr = server.local_addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ok = 0usize;
                let mut binary = BinaryClient::connect(addr).expect("connect");
                let mut i = t;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    match binary.predict("m", &probe_input(i % 48)) {
                        Ok((_, scores)) => {
                            assert_eq!(scores.len(), 4, "scores from either epoch");
                            ok += 1;
                        }
                        // During the registry swap a request may see the
                        // model draining; those are typed, not torn.
                        Err(e) => assert!(
                            matches!(e.code.as_str(), "unavailable" | "unknown_model"),
                            "unexpected error under reload: {e}"
                        ),
                    }
                    i += 1;
                }
                ok
            })
        })
        .collect();

    for seed in [9, 10, 11] {
        std::thread::sleep(Duration::from_millis(30));
        registry.install("m", compiled_model(seed, AlphabetSet::a1()));
    }
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let served: usize = workers
        .into_iter()
        .map(|w| w.join().expect("load thread panicked"))
        .sum();
    assert!(served > 0, "requests must flow across hot reloads");
    server.shutdown();
    registry.shutdown();
}

/// Drains a socket until EOF or error, tolerating a reset after the
/// server killed the connection.
fn read_until_close(stream: &mut TcpStream) -> String {
    let mut reply = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => reply.extend_from_slice(&buf[..n]),
        }
    }
    String::from_utf8_lossy(&reply).into_owned()
}

#[test]
fn large_requests_beyond_read_high_water_are_served() {
    // A single request bigger than read_high_water (default 1 MiB) but
    // within the protocol caps must complete: read backpressure may
    // park pipelined complete requests, never one mid-arrival.
    let registry = ModelRegistry::new(quick_config());
    registry.install("m", compiled_model(14, AlphabetSet::a1()));
    let mut server = reactor_server(Arc::clone(&registry));
    let padded = format!(
        r#"{{"op":"stats","model":"m"}}{}"#,
        " ".repeat(2 * 1024 * 1024)
    );

    // NDJSON: one ~2 MiB request line.
    let mut tcp = TcpClient::connect(server.local_addr()).expect("connect");
    let value = tcp.request(&padded).expect("2 MiB line answered");
    assert!(
        serde_json::to_string(&value)
            .expect("render")
            .contains(r#""ok":true"#),
        "large NDJSON line must be served"
    );

    // Binary: one ~2 MiB JSON frame.
    let mut binary = BinaryClient::connect(server.local_addr()).expect("handshake");
    binary.request_ok(&padded).expect("2 MiB frame answered");

    server.shutdown();
    registry.shutdown();
}

/// Writes a newline-less line just past the 16 MiB line cap and returns
/// everything the server sends back before it closes. The line is only
/// 64 bytes over, so the server consumes every byte (no reset racing
/// the reply) before tripping the violation.
fn stream_over_long_line(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let blob = vec![b'{'; framing::MAX_FRAME_LEN as usize + 64];
    stream.write_all(&blob).expect("write blob");
    read_until_close(&mut stream)
}

#[test]
fn over_long_ndjson_line_gets_bad_request_past_high_water() {
    // The line cap sits *above* the 1 MiB read high-water mark: the
    // reactor must keep reading past the mark for the documented
    // bad_request to be reachable at all.
    let registry = ModelRegistry::new(quick_config());
    let server = reactor_server(Arc::clone(&registry));
    let reply = stream_over_long_line(server.local_addr());
    assert!(
        reply.contains(r#""error":"bad_request""#),
        "expected bad_request, got: {reply:?}"
    );
    registry.shutdown();
}

#[test]
fn over_long_line_does_not_stall_concurrent_predicts() {
    // Each newline search covers only the bytes read since the last
    // one, so a 16 MiB line arriving 16 KiB at a time costs the event
    // loop linear, not quadratic, work — and a predict on another
    // connection of the same reactor is answered meanwhile.
    let registry = ModelRegistry::new(quick_config());
    registry.install("m", compiled_model(16, AlphabetSet::a1()));
    let mut server = reactor_server(Arc::clone(&registry));
    let addr = server.local_addr();
    let mut client = TcpClient::connect(addr).expect("connect");
    client
        .predict("m", &probe_input(0))
        .expect("warm-up predict");

    let done = Arc::new(AtomicBool::new(false));
    let streamer = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let reply = stream_over_long_line(addr);
            done.store(true, Ordering::SeqCst);
            reply
        })
    };
    let mut worst = Duration::ZERO;
    let mut predicts = 0;
    loop {
        let start = Instant::now();
        client
            .predict("m", &probe_input(predicts))
            .expect("predict served while the long line streams");
        worst = worst.max(start.elapsed());
        predicts += 1;
        if done.load(Ordering::SeqCst) {
            break;
        }
    }
    let reply = streamer.join().expect("streamer thread panicked");
    assert!(
        reply.contains(r#""error":"bad_request""#),
        "expected bad_request, got: {reply:?}"
    );
    assert!(
        worst < Duration::from_millis(250),
        "worst concurrent predict took {worst:?} over {predicts} predicts"
    );
    server.shutdown();
    registry.shutdown();
}

#[test]
fn byte_at_a_time_line_then_pipelined_request_are_both_answered() {
    // The newline search resumes where the last one stopped; a drained
    // line must restart it at the front of what is left, or the
    // request pipelined behind it is never found.
    let registry = ModelRegistry::new(quick_config());
    registry.install("m", compiled_model(17, AlphabetSet::a1()));
    let server = reactor_server(Arc::clone(&registry));
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    for &byte in br#"{"op":"stats","model":"m"}"# {
        stream.write_all(&[byte]).expect("one-byte write");
        std::thread::sleep(Duration::from_millis(1));
    }
    stream
        .write_all(b"\n{\"op\":\"health\"}\n")
        .expect("newline plus pipelined request");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let all = read_until_close(&mut stream);
    let lines: Vec<&str> = all.lines().collect();
    assert_eq!(lines.len(), 2, "both requests answered: {all:?}");
    assert!(
        lines[0].contains(r#""ok":true"#) && lines[0].contains(r#""model":"m""#),
        "stats reply: {}",
        lines[0]
    );
    assert!(
        lines[1].contains(r#""role":"node""#),
        "health reply: {}",
        lines[1]
    );
    registry.shutdown();
}

#[test]
fn invalid_utf8_line_gets_bad_request() {
    let registry = ModelRegistry::new(quick_config());
    let mut server = reactor_server(Arc::clone(&registry));
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(b"{\"op\":\"\xff\xfe\"}\n")
        .expect("write mangled line");
    let reply = read_until_close(&mut stream);
    assert!(
        reply.contains(r#""error":"bad_request""#),
        "expected bad_request, got: {reply:?}"
    );
    server.shutdown();
    registry.shutdown();
}

#[test]
fn invalid_utf8_json_frame_gets_bad_request_and_conn_survives() {
    let registry = ModelRegistry::new(quick_config());
    let server = reactor_server(Arc::clone(&registry));

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&framing::handshake(1)).expect("handshake");
    let mut hello = [0u8; framing::HANDSHAKE_LEN];
    stream.read_exact(&mut hello).expect("handshake reply");

    let read_frame = |stream: &mut TcpStream| -> Vec<u8> {
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).expect("frame length");
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut payload).expect("frame payload");
        payload
    };

    // A JSON frame whose payload is not UTF-8: a typed error, and —
    // frame boundaries being intact — the connection lives on.
    let mut payload = vec![framing::TAG_REQ_JSON];
    payload.extend_from_slice(b"\xff\xfe\xfd");
    stream
        .write_all(&framing::frame(&payload))
        .expect("mangled frame");
    let reply = read_frame(&mut stream);
    assert_eq!(reply[0], framing::TAG_RESP_JSON);
    let body = std::str::from_utf8(&reply[1..]).expect("utf8 reply");
    assert!(
        body.contains(r#""error":"bad_request""#),
        "expected bad_request, got: {body}"
    );

    let mut payload = vec![framing::TAG_REQ_JSON];
    payload.extend_from_slice(br#"{"op":"stats"}"#);
    stream
        .write_all(&framing::frame(&payload))
        .expect("valid frame");
    let reply = read_frame(&mut stream);
    let body = std::str::from_utf8(&reply[1..]).expect("utf8 reply");
    assert!(
        body.contains(r#""ok":true"#),
        "connection must survive a mangled JSON frame, got: {body}"
    );
    registry.shutdown();
}

#[test]
fn shutdown_answers_inflight_then_closes() {
    let registry = ModelRegistry::new(quick_config());
    registry.install("m", compiled_model(13, AlphabetSet::a1()));
    let mut server = reactor_server(Arc::clone(&registry));

    let mut tcp = TcpClient::connect(server.local_addr()).expect("connect");
    tcp.predict("m", &probe_input(1)).expect("warm the path");
    server.shutdown();
    // After shutdown the socket must be closed...
    let err = tcp.predict("m", &probe_input(2)).expect_err("server gone");
    assert!(matches!(
        err.code.as_str(),
        "io" | "bad_response" | "unavailable"
    ));
    // ...and a fresh connect must fail or be torn down immediately.
    registry.shutdown();
}
