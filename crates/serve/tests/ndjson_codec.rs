//! The one-pass NDJSON `predict` codec against the `Value`-tree path it
//! replaces on the hot path, at both ends of the wire.
//!
//! * Server: `parse_request` must answer every line exactly as
//!   `parse_request_value` does — the same request with bit-identical
//!   `f32` inputs, or the same error code and message. Valid lines cover
//!   every way a number can be spelled; hostile lines cover reordered,
//!   duplicate and escaped fields, whitespace, nesting, bad numbers,
//!   trailing bytes, every truncation of a short line and seeded random
//!   byte edits.
//! * Client: every line `TcpClient::predict` puts on the socket must
//!   escape the model name as `serde_json` does and decode, through
//!   both parsers, to that model and the sent inputs' exact bits; a
//!   non-finite input is refused without writing anything.
//!
//! Seeded and std-only, with a fixed budget: the same lines every run.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;

use man_serve::protocol::{error_code, parse_request, parse_request_value, Request};
use man_serve::TcpClient;
use serde::Value;

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

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    fn finite_f32(&mut self) -> f32 {
        loop {
            let x = f32::from_bits(self.next() as u32);
            if x.is_finite() {
                return x;
            }
        }
    }

    fn finite_f64(&mut self) -> f64 {
        loop {
            let x = f64::from_bits(self.next());
            if x.is_finite() {
                return x;
            }
        }
    }
}

/// `f32` bit patterns worth spelling every way: signed zeros, the
/// subnormal and normal extremes, integers at the 24-bit mantissa edge,
/// and the two values whose `f32` shortest form does not read back
/// through `f64` to the same `f32`.
const EDGE_F32_BITS: &[u32] = &[
    0x0000_0000,
    0x8000_0000,
    0x0000_0001,
    0x8000_0001,
    0x007f_ffff,
    0x0080_0000,
    0x7f7f_ffff,
    0xff7f_ffff,
    0x3f80_0000,
    0x4b80_0000,
    0x4b80_0001,
    0x3dcc_cccd,
    0x15ae_43fd,
    0x95ae_43fd,
];

/// Number texts the `Value` path accepts, spelled as no renderer here
/// would: integers at the `i64`/`u64` boundaries and past them, a
/// negative zero integer, leading zeros, exponent forms, magnitudes
/// beyond `f32` and below its subnormals, and an integer only a single
/// rounding converts right.
const EDGE_TEXTS: &[&str] = &[
    "0",
    "-0",
    "01",
    "-01",
    "00",
    "-0.0",
    "0e0",
    "1E+5",
    "1e-5",
    "2.5e+3",
    "-7.038531e-26",
    "7.038531e-26",
    "1e39",
    "-1e39",
    "1e400",
    "1e-50",
    "16777217",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "123456789012345678901234567890",
    // 2^60 + 2^36 + 1: rounds to a different f32 through f64 (twice)
    // than straight from i64 (once).
    "1152921573326323713",
];

/// One random valid number text, in one of the spellings a client may
/// send.
fn number_text(rng: &mut Rng) -> String {
    match rng.below(9) {
        // The `f64` shortest form.
        0 | 1 => serde_json::to_string(&rng.finite_f32()).expect("finite"),
        // The `f32` shortest form.
        2 => rng.finite_f32().to_string(),
        3 => rng.finite_f64().to_string(),
        4 => format!("{:e}", rng.finite_f32()),
        5 => format!("{:E}", rng.finite_f64()),
        6 => (rng.next() as i64).to_string(),
        7 => {
            let x = f32::from_bits(*rng.pick(EDGE_F32_BITS));
            match rng.below(3) {
                0 => x.to_string(),
                1 => f64::from(x).to_string(),
                _ => format!("{x:e}"),
            }
        }
        _ => (*rng.pick(EDGE_TEXTS)).to_owned(),
    }
}

fn predict_line(model: &str, numbers: &[String]) -> String {
    format!(
        r#"{{"op":"predict","model":"{model}","input":[{}]}}"#,
        numbers.join(",")
    )
}

/// Asserts `parse_request` answers `line` exactly as the `Value` path
/// does; returns whether the line was accepted.
fn assert_agree(line: &str) -> bool {
    match (parse_request(line), parse_request_value(line)) {
        (Ok(fast), Ok(reference)) => {
            match (&fast, &reference) {
                (
                    Request::Predict { model, input },
                    Request::Predict {
                        model: ref_model,
                        input: ref_input,
                    },
                ) => {
                    assert_eq!(model, ref_model, "model differs on {line:?}");
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(input),
                        bits(ref_input),
                        "input bits differ on {line:?}"
                    );
                }
                _ => assert_eq!(fast, reference, "request differs on {line:?}"),
            }
            true
        }
        (Err(fast), Err(reference)) => {
            assert_eq!(
                error_code(&fast),
                error_code(&reference),
                "error code differs on {line:?}"
            );
            assert_eq!(
                fast.to_string(),
                reference.to_string(),
                "error message differs on {line:?}"
            );
            false
        }
        (fast, reference) => {
            panic!("paths disagree on {line:?}: one-pass {fast:?}, Value path {reference:?}")
        }
    }
}

#[test]
fn valid_predict_lines_decode_bit_identically_to_the_value_path() {
    let mut rng = Rng(0x6e64_6a73_6f6e_0001);
    let models = ["digits", "m", "", "ü-model", "with space", "tab\there"];
    // Every length up to 64, then a fixed sample up to the 2048 cap.
    let mut lengths: Vec<usize> = (0..=64).collect();
    lengths.extend((0..24).map(|_| 65 + rng.below(2048 - 65)));
    lengths.push(2048);
    for len in lengths {
        let numbers: Vec<String> = (0..len).map(|_| number_text(&mut rng)).collect();
        let line = predict_line(models[rng.below(models.len())], &numbers);
        assert!(assert_agree(&line), "a valid line was rejected: {line:?}");
    }
    // Every edge spelling alone, where a wrong conversion cannot hide.
    let singles = EDGE_TEXTS
        .iter()
        .map(|t| (*t).to_owned())
        .chain(EDGE_F32_BITS.iter().flat_map(|&b| {
            let x = f32::from_bits(b);
            [
                x.to_string(),
                f64::from(x).to_string(),
                format!("{x:e}"),
                serde_json::to_string(&x).expect("finite"),
            ]
        }));
    for text in singles {
        let line = predict_line("m", &[text]);
        assert!(assert_agree(&line), "a valid line was rejected: {line:?}");
    }
}

#[test]
fn hostile_lines_get_the_value_path_answer() {
    const BASE: &str = r#"{"op":"predict","model":"m","input":[0.5,1,-2e3]}"#;
    let mut lines: Vec<String> = [
        // Other key orders and duplicate keys.
        r#"{"model":"m","op":"predict","input":[1]}"#,
        r#"{"op":"predict","input":[1],"model":"m"}"#,
        r#"{"op":"predict","model":"m","input":[1],"input":[2]}"#,
        r#"{"op":"predict","model":"m","model":"n","input":[1]}"#,
        r#"{"op":"predict","op":"load","model":"m","input":[1]}"#,
        r#"{"op":"predict","model":"m","input":[1],"extra":true}"#,
        // Whitespace anywhere.
        r#" {"op":"predict","model":"m","input":[1]}"#,
        r#"{"op":"predict","model":"m","input":[1]} "#,
        "{\"op\":\"predict\",\"model\":\"m\",\"input\":[1]}\r",
        "{\"op\":\"predict\",\"model\":\"m\",\"input\":[1]}\n",
        r#"{ "op":"predict","model":"m","input":[1]}"#,
        r#"{"op" :"predict","model":"m","input":[1]}"#,
        r#"{"op":"predict", "model":"m","input":[1]}"#,
        r#"{"op":"predict","model":"m","input": [1]}"#,
        r#"{"op":"predict","model":"m","input":[ 1]}"#,
        r#"{"op":"predict","model":"m","input":[1 ,2]}"#,
        r#"{"op":"predict","model":"m","input":[1, 2]}"#,
        r#"{"op":"predict","model":"m","input":[1] }"#,
        r#"{"op":"predict","model":"m","input":[1 ]}"#,
        // Escaped and mistyped model names.
        r#"{"op":"predict","model":"m\"x","input":[1]}"#,
        r#"{"op":"predict","model":"m\\","input":[1]}"#,
        r#"{"op":"predict","model":"\u006d","input":[1]}"#,
        r#"{"op":"predict","model":"m\/n","input":[1]}"#,
        r#"{"op":"predict","model":"m\q","input":[1]}"#,
        r#"{"op":"predict","model":"\ud800","input":[1]}"#,
        r#"{"op":"predict","model":7,"input":[1]}"#,
        r#"{"op":"predict","model":null,"input":[1]}"#,
        // Nested and non-number inputs.
        r#"{"op":"predict","model":"m","input":[[1]]}"#,
        r#"{"op":"predict","model":"m","input":[1,[2]]}"#,
        r#"{"op":"predict","model":"m","input":[{}]}"#,
        r#"{"op":"predict","model":"m","input":[null]}"#,
        r#"{"op":"predict","model":"m","input":[true]}"#,
        r#"{"op":"predict","model":"m","input":["1"]}"#,
        r#"{"op":"predict","model":"m","input":{}}"#,
        r#"{"op":"predict","model":"m","input":1}"#,
        r#"{"op":"predict","model":"m","input":null}"#,
        r#"{"op":"predict","model":"m","input":"1"}"#,
        // Numbers the vendored parser scans but may not read.
        r#"{"op":"predict","model":"m","input":[-]}"#,
        r#"{"op":"predict","model":"m","input":[1.]}"#,
        r#"{"op":"predict","model":"m","input":[.5]}"#,
        r#"{"op":"predict","model":"m","input":[-.5]}"#,
        r#"{"op":"predict","model":"m","input":[1.e5]}"#,
        r#"{"op":"predict","model":"m","input":[1e]}"#,
        r#"{"op":"predict","model":"m","input":[1e+]}"#,
        r#"{"op":"predict","model":"m","input":[--1]}"#,
        r#"{"op":"predict","model":"m","input":[-+1]}"#,
        r#"{"op":"predict","model":"m","input":[+1]}"#,
        r#"{"op":"predict","model":"m","input":[1-2]}"#,
        r#"{"op":"predict","model":"m","input":[1.2.3]}"#,
        r#"{"op":"predict","model":"m","input":[1e5e5]}"#,
        r#"{"op":"predict","model":"m","input":[0x10]}"#,
        r#"{"op":"predict","model":"m","input":[NaN]}"#,
        r#"{"op":"predict","model":"m","input":[Infinity]}"#,
        r#"{"op":"predict","model":"m","input":[-Infinity]}"#,
        r#"{"op":"predict","model":"m","input":[inf]}"#,
        r#"{"op":"predict","model":"m","input":[- 1]}"#,
        r#"{"op":"predict","model":"m","input":[1,]}"#,
        r#"{"op":"predict","model":"m","input":[,1]}"#,
        r#"{"op":"predict","model":"m","input":[1,,2]}"#,
        r#"{"op":"predict","model":"m","input":[,]}"#,
        // Trailing bytes.
        r#"{"op":"predict","model":"m","input":[1]}x"#,
        r#"{"op":"predict","model":"m","input":[1]}}"#,
        r#"{"op":"predict","model":"m","input":[1]}{}"#,
        r#"{"op":"predict","model":"m","input":[1]]}"#,
        r#"{"op":"predict","model":"m","input":[1]},"#,
        r#"{"op":"predict","model":"m","input":[]}x"#,
        r#"{"op":"predict","model":"m","input":[]]}"#,
        // Other ops and missing fields.
        r#"{"op":"predictx","model":"m","input":[1]}"#,
        r#"{"op":"Predict","model":"m","input":[1]}"#,
        r#"{"op":"load","model":"m","input":[1]}"#,
        r#"{"op":"predict"}"#,
        r#"{"op":"predict","model":"m"}"#,
        r#"{"op":"predict","model":"m","inputs":[1]}"#,
        r#"{"op":"stats","model":"m"}"#,
        // Not an object at all.
        "",
        "{",
        "}",
        "[1]",
        "\"predict\"",
        "1",
        "null",
    ]
    .iter()
    .map(|l| (*l).to_owned())
    .collect();

    // Every truncation of two short lines (one with a multi-byte name;
    // parse_request takes `&str`, so cuts land on char boundaries).
    for short in [BASE, r#"{"op":"predict","model":"ü","input":[1e5,-0]}"#] {
        lines.extend(
            (0..short.len())
                .filter(|&cut| short.is_char_boundary(cut))
                .map(|cut| short[..cut].to_owned()),
        );
    }

    // Seeded random byte edits of the base line: replace, insert or
    // delete one to three bytes, drawn from JSON's structural bytes,
    // number bytes and a letter.
    const ALPHABET: &[u8] = b"{}[]\",:\\ -+.eE0123456789a";
    let mut rng = Rng(0x6e64_6a73_6f6e_0002);
    for _ in 0..4000 {
        let mut bytes = BASE.as_bytes().to_vec();
        for _ in 0..=rng.below(3) {
            let at = rng.below(bytes.len());
            match rng.below(3) {
                0 => bytes[at] = *rng.pick(ALPHABET),
                1 => bytes.insert(at, *rng.pick(ALPHABET)),
                _ => {
                    bytes.remove(at);
                }
            }
            if bytes.is_empty() {
                break;
            }
        }
        lines.push(String::from_utf8(bytes).expect("ASCII edits of an ASCII line"));
    }

    let accepted = lines.iter().filter(|l| assert_agree(l)).count();
    // Both outcomes must be exercised, or the corpus shows nothing.
    assert!(accepted > 0 && accepted < lines.len(), "{accepted}");
}

#[test]
fn f64_shortest_form_round_trips_where_the_f32_form_does_not() {
    // PROTOCOL.md's advice to clients, pinned on the two values an
    // exhaustive sweep of finite f32s finds: the f32 shortest text reads
    // through f64 to a neighbouring f32; the f64 shortest text does not.
    for bits in [0x15ae_43fd_u32, 0x95ae_43fd] {
        let x = f32::from_bits(bits);
        let via_f64 = |text: String| (text.parse::<f64>().expect("a number") as f32).to_bits();
        assert_ne!(via_f64(x.to_string()), bits, "{x}");
        assert_eq!(via_f64(f64::from(x).to_string()), bits, "{x}");
    }
}

fn value_rendering(model: &str, input: &[f32]) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("op".into(), Value::Str("predict".into())),
        ("model".into(), Value::Str(model.into())),
        ("input".into(), serde::Serialize::to_value(input)),
    ]))
    .expect("finite inputs render")
}

#[test]
fn client_predict_lines_decode_to_the_sent_model_and_input_bits() {
    // A loopback peer that records every line and answers each with a
    // fixed `ok` envelope.
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound address");
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("client connects");
        let mut writer = stream.try_clone().expect("clone stream");
        let mut reader = BufReader::new(stream);
        let mut received = Vec::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read a line") == 0 {
                return received;
            }
            received.push(line);
            writer
                .write_all(b"{\"ok\":true,\"model\":\"m\",\"class\":0,\"scores\":[0]}\n")
                .expect("answer");
        }
    });

    let mut rng = Rng(0x6e64_6a73_6f6e_0003);
    let edges: Vec<f32> = EDGE_F32_BITS.iter().map(|&b| f32::from_bits(b)).collect();
    let integral: Vec<f32> = [0.0, -0.0, 1.0, -3.0, 255.0, 1e10, 16_777_216.0, f32::MAX].into();
    let mut cases: Vec<(&str, Vec<f32>)> = vec![
        ("digits", Vec::new()),
        ("m", edges),
        ("quo\"te", integral),
        ("back\\slash ctl\u{1} üñí", vec![0.5, -0.25]),
        ("", vec![1e-45]),
    ];
    for len in [1, 2, 7, 64, 300, 1024] {
        cases.push(("digits", (0..len).map(|_| rng.finite_f32()).collect()));
    }
    let mut client = TcpClient::connect(addr).expect("loopback connect");
    let non_finite_message = serde_json::to_string(&f64::NAN)
        .expect_err("NaN has no JSON spelling")
        .to_string();
    for (model, input) in &cases {
        client.predict(model, input).expect("the peer answers ok");
        // A refused input between two sent lines: any byte it wrote
        // would prefix the next line the peer records.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = client
                .predict(model, &[0.5, bad])
                .expect_err("non-finite input is refused");
            assert_eq!(err.code, "bad_response");
            assert_eq!(err.message, non_finite_message);
        }
    }
    drop(client);
    let received = peer.join().expect("peer thread");
    assert_eq!(received.len(), cases.len());
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (got, (model, input)) in received.iter().zip(&cases) {
        // Up to the numbers, the bytes `serde_json` writes: the model
        // name is escaped the same way.
        let want = value_rendering(model, input);
        let head = &want[..want.rfind(r#""input":["#).expect("an input field") + 9];
        assert!(
            got.starts_with(head),
            "head differs:\n got {got:?}\nwant {head:?}"
        );
        let line = got.strip_suffix('\n').expect("newline-terminated");
        for parsed in [parse_request(line), parse_request_value(line)] {
            match parsed {
                Ok(Request::Predict {
                    model: got_model,
                    input: got_input,
                }) => {
                    assert_eq!(&got_model, model, "model differs on {line:?}");
                    assert_eq!(
                        bits(&got_input),
                        bits(input),
                        "input bits differ on {line:?}"
                    );
                }
                other => panic!("{line:?} decoded to {other:?}"),
            }
        }
    }
}
