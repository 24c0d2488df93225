//! `CompiledModel::from_json` against hostile artifacts.
//!
//! Starting from valid 8-bit `{1}` artifacts — the Digits-8bit model
//! itself, and a small two-layer MLP with the same configuration — the
//! loader is fed:
//!
//! * an off-lattice weight;
//! * allocation-bomb dimensions: a dense `in_dim` of 2^40 over the same
//!   few weights, a conv kernel larger than its input, and sizes whose
//!   products overflow `usize`;
//! * layer-count mismatches between network, spec and alphabets;
//! * a network whose last layer feeds a sigmoid, so has no logits;
//! * word lengths outside 3..=16, and a `bits` field that disagrees with
//!   the spec;
//! * every truncation, and 2000 seeded byte edits;
//! * 100,000-deep nesting.
//!
//! Loading must never panic. Every error is `ManError::Artifact` or
//! `ManError::Compile`; every named case and every truncation is an
//! error; every model that does load answers `infer_raw` on a probe.
//! Over loopback, a `load` of a tampered file gets `bad_artifact` and
//! the model it would have replaced keeps answering.
//!
//! The Digits-8bit artifact is 1.26 MB, so every truncation of it would
//! be over a million parses: truncations and byte edits run over the
//! small artifact, plus the first 512 cuts and 16 seeded cuts of the
//! large one. Seeded and std-only, with a fixed budget: the same bytes
//! every run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use man_repro::man::alphabet::AlphabetSet;
use man_repro::man::zoo::Benchmark;
use man_repro::man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use man_repro::man_nn::network::Network;
use man_repro::{CompiledModel, ManError, Pipeline};
use man_serve::{BatchConfig, ModelRegistry, Server, TcpClient};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;

/// Seeded random byte edits of the small artifact.
const EDITS: usize = 2000;

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

fn digits_8bit() -> CompiledModel {
    Pipeline::for_benchmark(Benchmark::DigitsMlp)
        .with_bits(8)
        .with_alphabets(vec![AlphabetSet::a1()])
        .constrain()
        .expect("projection-only pipeline")
        .compile()
        .expect("projected weights compile")
}

/// Digits-8bit's configuration (8-bit words, `{1}`, two dense layers
/// with a sigmoid between them) at a size every truncation can afford.
fn small_8bit() -> CompiledModel {
    let mut rng = SmallRng::seed_from_u64(24);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(16, 8, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(8, 4, &mut rng)),
    ]);
    Pipeline::from_network(net)
        .with_bits(8)
        .with_alphabets(vec![AlphabetSet::a1()])
        .constrain()
        .expect("projection-only pipeline")
        .compile()
        .expect("projected weights compile")
}

/// Loads `json` and checks the loader's contract: no panic, only
/// `Artifact`/`Compile` errors, and a loaded model answers a probe.
/// Returns whether it loaded.
fn loads(json: &str, what: &str) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| match CompiledModel::from_json(json) {
        Ok(model) => {
            let probe = vec![0.5; model.fixed().input_len()];
            let scores = model.fixed().infer_raw(&probe);
            assert!(!scores.is_empty(), "{what}: a loaded model answers");
            true
        }
        Err(ManError::Artifact(_) | ManError::Compile(_)) => false,
        Err(other) => panic!("{what}: not an artifact or compile error: {other:?}"),
    }));
    outcome.unwrap_or_else(|_| panic!("{what}: loading panicked"))
}

fn rejects(json: &str, what: &str) {
    assert!(!loads(json, what), "{what}: must be rejected");
}

/// The value at `path` (object keys, or array indices as digits).
fn at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(v, |v, key| match v {
        Value::Object(entries) => {
            &mut entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no field `{key}`"))
                .1
        }
        Value::Array(items) => &mut items[key.parse::<usize>().expect("an array index")],
        other => panic!("`{key}` indexes a leaf {other:?}"),
    })
}

/// `base` with `f` applied, rendered.
fn edited(base: &Value, f: impl FnOnce(&mut Value)) -> String {
    let mut v = base.clone();
    f(&mut v);
    serde_json::to_string(&v).expect("renders")
}

fn set(base: &Value, path: &[&str], value: Value) -> String {
    edited(base, |v| *at(v, path) = value)
}

fn array_len(v: &mut Value, path: &[&str]) -> usize {
    match at(v, path) {
        Value::Array(items) => items.len(),
        other => panic!("not an array: {other:?}"),
    }
}

/// A conv layer over `in_h × in_w` whose weight and bias counts match
/// its channels and kernel.
fn conv_layer(in_ch: u64, out_ch: u64, k: u64, in_h: u64, in_w: u64, weights: usize) -> Value {
    let zeros = |n: usize| Value::Array(vec![Value::F64(0.0); n]);
    Value::Object(vec![(
        "Conv2d".into(),
        Value::Object(vec![
            ("in_channels".into(), Value::U64(in_ch)),
            ("out_channels".into(), Value::U64(out_ch)),
            ("kernel".into(), Value::U64(k)),
            ("in_h".into(), Value::U64(in_h)),
            ("in_w".into(), Value::U64(in_w)),
            ("weights".into(), zeros(weights)),
            ("bias".into(), zeros(out_ch as usize)),
            ("grad_w".into(), zeros(0)),
            ("grad_b".into(), zeros(0)),
            ("cached_input".into(), zeros(0)),
        ]),
    )])
}

/// The named hostile cases, all derived from `json`: each must be
/// rejected.
fn named_cases(json: &str) -> Vec<(&'static str, String)> {
    let base: Value = serde_json::from_str(json).expect("the base artifact parses");
    let first = |field: &'static str| ["network", "layers", "0", "Dense", field];
    let mut cases = vec![
        (
            // 3/128 needs a 3 quartet, which `{1}` cannot select.
            "off-lattice weight",
            set(
                &base,
                &["network", "layers", "0", "Dense", "weights", "0"],
                Value::F64(3.0 / 128.0),
            ),
        ),
        (
            "dense in_dim of 2^40 over the same weights",
            set(&base, &first("in_dim"), Value::U64(1 << 40)),
        ),
        (
            "dense in_dim × out_dim overflows usize",
            edited(&base, |v| {
                *at(v, &first("in_dim")) = Value::U64(1 << 40);
                *at(v, &first("out_dim")) = Value::U64(1 << 40);
            }),
        ),
        (
            "dense in_dim past u64",
            set(&base, &first("in_dim"), Value::U64(u64::MAX)).replacen(
                "18446744073709551615",
                "18446744073709551616",
                1,
            ),
        ),
        (
            "negative dense out_dim",
            set(&base, &first("out_dim"), Value::I64(-1)),
        ),
        (
            "conv kernel larger than its input",
            set(
                &base,
                &["network", "layers", "0"],
                conv_layer(1, 1, 40, 32, 32, 1600),
            ),
        ),
        (
            "conv sizes whose product overflows usize",
            set(
                &base,
                &["network", "layers", "0"],
                conv_layer(1 << 20, 1, 1, 1 << 24, 1 << 24, 1 << 20),
            ),
        ),
        (
            "network with a third parameterized layer",
            edited(&base, |v| {
                let last = at(v, &["network", "layers", "2"]).clone();
                let sigmoid = at(v, &["network", "layers", "1"]).clone();
                if let Value::Array(layers) = at(v, &["network", "layers"]) {
                    layers.extend([sigmoid, last]);
                }
            }),
        ),
        (
            // No logits to score with: compiled, it answered every input
            // with an empty score vector.
            "network ending in a sigmoid",
            edited(&base, |v| {
                let sigmoid = at(v, &["network", "layers", "1"]).clone();
                if let Value::Array(layers) = at(v, &["network", "layers"]) {
                    layers.push(sigmoid);
                }
            }),
        ),
        (
            "network with one parameterized layer",
            edited(&base, |v| {
                if let Value::Array(layers) = at(v, &["network", "layers"]) {
                    layers.truncate(1);
                }
            }),
        ),
        (
            "spec with one layer format",
            edited(&base, |v| {
                if let Value::Array(formats) = at(v, &["spec", "layer_formats"]) {
                    formats.truncate(1);
                }
            }),
        ),
        (
            "three alphabet sets",
            edited(&base, |v| {
                let n = array_len(v, &["alphabets", "sets"]);
                if let Value::Array(sets) = at(v, &["alphabets", "sets"]) {
                    sets.push(sets[n - 1].clone());
                }
            }),
        ),
        (
            "no alphabet sets",
            set(&base, &["alphabets", "sets"], Value::Array(Vec::new())),
        ),
        (
            "bits field disagrees with the spec",
            set(&base, &["bits"], Value::U64(9)),
        ),
        (
            "deep nesting",
            json.replacen(
                "\"bits\":8,",
                &format!("\"bits\":{}{},", "[".repeat(100_000), "]".repeat(100_000)),
                1,
            ),
        ),
    ];
    // Every word length outside 3..=16, in the field, the spec and every
    // layer format alike, so only the range check can object.
    for bits in [0u64, 1, 2, 17, 32, u64::from(u32::MAX)] {
        let name = if bits < 3 {
            "bits below 3"
        } else {
            "bits above 16"
        };
        cases.push((
            name,
            edited(&base, |v| {
                *at(v, &["bits"]) = Value::U64(bits);
                *at(v, &["spec", "bits"]) = Value::U64(bits);
                let n = array_len(v, &["spec", "layer_formats"]);
                for i in 0..n {
                    let i = i.to_string();
                    *at(v, &["spec", "layer_formats", &i, "bits"]) = Value::U64(bits);
                }
            }),
        ));
    }
    cases
}

#[test]
fn named_hostile_artifacts_are_typed_errors() {
    for (what, base) in [
        ("Digits-8bit", digits_8bit().to_json().expect("serializes")),
        ("small 8-bit", small_8bit().to_json().expect("serializes")),
    ] {
        assert!(loads(&base, what), "{what}: the base artifact loads");
        for (case, json) in named_cases(&base) {
            assert_ne!(json, base, "{what}: {case} must change the artifact");
            rejects(&json, &format!("{what}: {case}"));
        }
    }
}

#[test]
fn truncations_and_byte_edits_never_panic() {
    let small = small_8bit().to_json().expect("serializes");
    for cut in 0..small.len() {
        rejects(&small[..cut], &format!("small artifact cut at {cut}"));
    }
    let digits = digits_8bit().to_json().expect("serializes");
    let mut rng = Rng(0x4d41_4e21);
    let cuts = (0..512).chain((0..16).map(|_| rng.below(digits.len())));
    for cut in cuts {
        rejects(&digits[..cut], &format!("Digits-8bit cut at {cut}"));
    }

    // Edits keep the text ASCII (so valid UTF-8), favouring JSON's
    // structural bytes and digits.
    const BYTES: &[u8] = b"[]{}\":,-+.eE0123456789 ntf";
    let mut loaded = 0;
    for i in 0..EDITS {
        let mut bytes = small.clone().into_bytes();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len());
            let byte = if rng.below(4) == 0 {
                rng.below(128) as u8
            } else {
                BYTES[rng.below(BYTES.len())]
            };
            match rng.below(3) {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ => {
                    bytes.remove(at);
                }
            }
        }
        let json = String::from_utf8(bytes).expect("ASCII edits stay UTF-8");
        if loads(&json, &format!("edit {i}: {json}")) {
            loaded += 1;
        }
    }
    // About one edit in ten still loads (a number changed to another
    // on-lattice one, say): the budget reaches the compile path and
    // inference, not only the parser.
    assert!(loaded > 0, "some edits must still load");
}

#[test]
fn tampered_load_over_loopback_is_bad_artifact_and_the_old_model_serves() {
    let model = digits_8bit();
    let registry = ModelRegistry::new(BatchConfig::default());
    registry.install("digits", model.clone());
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&registry)).expect("server binds");
    let mut tcp = TcpClient::connect(server.local_addr()).expect("connect");

    let probe: Vec<f32> = (0..model.fixed().input_len())
        .map(|i| (i % 7) as f32 / 7.0)
        .collect();
    let want = model.fixed().infer_raw(&probe);
    let dir = std::env::temp_dir();
    // Every named case, plus a truncation, as a reload of the served
    // name: none may replace the model.
    let small = small_8bit().to_json().expect("serializes");
    let truncated = small[..small.len() / 2].to_owned();
    let tampered = named_cases(&small)
        .into_iter()
        .chain([("truncated", truncated)]);
    for (i, (case, text)) in tampered.enumerate() {
        let path = dir.join(format!("man_hostile_{}_{i}.man.json", std::process::id()));
        std::fs::write(&path, text).expect("write the tampered artifact");
        let err = tcp
            .load("digits", path.to_str().expect("UTF-8 temp path"))
            .expect_err("a tampered artifact must not load");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.code, "bad_artifact", "{case}: {}", err.message);
        let (_, scores) = tcp
            .predict("digits", &probe)
            .expect("the model loaded before keeps serving");
        assert_eq!(scores, want, "{case}: the old model answers");
    }
    server.shutdown();
    registry.shutdown();
}
