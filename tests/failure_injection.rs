//! Failure injection: every typed error path fires with a useful message
//! through the unified `ManError` taxonomy, and extreme inputs exercise
//! the saturating paths without panicking.

use man_repro::man::alphabet::AlphabetSet;
use man_repro::man::asm::AsmMultiplier;
use man_repro::man::fixed::{CompileError, FixedNet, LayerAlphabets, QuantSpec};
use man_repro::man::train::MethodologyConfig;
use man_repro::man::zoo::Benchmark;
use man_repro::man_hw::cell::CellLibrary;
use man_repro::man_hw::synth::synthesize_adder;
use man_repro::man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use man_repro::man_nn::network::Network;
use man_repro::{CompiledModel, ManError, Pipeline, TrainingData};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn mlp(seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    Network::new(vec![
        Layer::Dense(Dense::new(8, 6, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(6, 2, &mut rng)),
    ])
}

#[test]
fn unconstrained_compile_reports_layer_and_magnitude() {
    // Bypassing the pipeline's projection (compiling an unconstrained
    // network directly) is caught and reported with full context.
    let net = mlp(1);
    let spec = QuantSpec::fit(&net, 8);
    let err = CompiledModel::from_parts(net, spec, LayerAlphabets::uniform(AlphabetSet::a1(), 2))
        .unwrap_err();
    match &err {
        ManError::Compile(CompileError::UnconstrainedWeight { layer, magnitude }) => {
            assert!(*layer < 2);
            assert!(*magnitude <= 127);
        }
        other => panic!("wrong error: {other}"),
    }
    assert!(err.to_string().contains("constrain the network first"));
}

#[test]
fn layer_count_mismatch_is_reported() {
    let net = mlp(2);
    let spec = QuantSpec::fit(&net, 8);
    let err = CompiledModel::from_parts(net, spec, LayerAlphabets::uniform(AlphabetSet::a8(), 5))
        .unwrap_err();
    assert!(matches!(
        err,
        ManError::Compile(CompileError::LayerCountMismatch {
            expected: 2,
            got: 5
        })
    ));
}

#[test]
fn assignment_length_mismatch_is_a_config_error() {
    // The pipeline catches a wrong-length explicit assignment before
    // compiling.
    let err = Pipeline::from_network(mlp(7))
        .with_bits(8)
        .with_assignment(LayerAlphabets::uniform(AlphabetSet::a1(), 5))
        .constrain()
        .unwrap_err();
    assert!(matches!(err, ManError::Config(_)), "{err}");
    assert!(err.to_string().contains("5"));
}

/// `train_baseline` on a tiny network with one hyper-parameter
/// overridden: a bad value must come back as `ManError::Config` naming
/// the field, before any training panics on it.
fn assert_config_error(field: &str, set: impl Fn(&mut MethodologyConfig) + 'static) {
    let images: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32 / 6.0; 8]).collect();
    let labels: Vec<usize> = (0..6).map(|i| i % 2).collect();
    let data = TrainingData::new(images.clone(), labels.clone(), images, labels).expect("valid");
    let err = Pipeline::from_network(mlp(8))
        .with_bits(8)
        .with_data(data)
        .configure(set)
        .train_baseline()
        .unwrap_err();
    assert!(matches!(err, ManError::Config(_)), "{field}: {err}");
    assert!(err.to_string().contains(field), "{field}: {err}");
}

#[test]
fn zero_batch_size_is_a_config_error() {
    assert_config_error("batch_size", |cfg| cfg.batch_size = 0);
}

#[test]
fn candidates_emptied_by_an_override_are_a_config_error() {
    // The list is checked after the overrides run, so an override
    // cannot empty it past validation and leave selection nothing to
    // pick from.
    assert_config_error("candidate", |cfg| cfg.candidates.clear());
}

#[test]
fn non_positive_learning_rate_is_a_config_error() {
    assert_config_error("learning rate", |cfg| cfg.lr = 0.0);
    assert_config_error("learning rate", |cfg| cfg.lr = -0.1);
    assert_config_error("learning rate", |cfg| cfg.lr = f32::NAN);
}

#[test]
fn momentum_outside_unit_interval_is_a_config_error() {
    assert_config_error("momentum", |cfg| cfg.momentum = 1.0);
    assert_config_error("momentum", |cfg| cfg.momentum = -0.1);
    assert_config_error("momentum", |cfg| cfg.momentum = f32::NAN);
}

#[test]
fn non_positive_retrain_lr_factor_is_a_config_error() {
    assert_config_error("retrain_lr_factor", |cfg| cfg.retrain_lr_factor = 0.0);
    assert_config_error("retrain_lr_factor", |cfg| cfg.retrain_lr_factor = -1.0);
    // Positive, but the product underflows to a zero rate.
    assert_config_error("retrain_lr_factor", |cfg| {
        cfg.lr = 1e-30;
        cfg.retrain_lr_factor = 1e-30;
    });
}

#[test]
fn non_positive_clip_rms_is_a_config_error() {
    assert_config_error("clip_rms", |cfg| cfg.clip_rms = Some(0.0));
    assert_config_error("clip_rms", |cfg| cfg.clip_rms = Some(-1.0));
    assert_config_error("clip_rms", |cfg| cfg.clip_rms = Some(f32::NAN));
}

#[test]
fn bare_activation_architecture_is_rejected() {
    let mut rng = SmallRng::seed_from_u64(3);
    // Two stacked activations: the second has no parameterized layer
    // before it.
    let net = Network::new(vec![
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(4, 2, &mut rng)),
    ]);
    let spec = QuantSpec::fit(&net, 8);
    let err =
        FixedNet::compile(&net, &spec, &LayerAlphabets::uniform(AlphabetSet::a8(), 1)).unwrap_err();
    assert!(matches!(err, CompileError::UnsupportedArchitecture(_)));
    // And the same failure wrapped at the pipeline surface.
    let err: ManError = err.into();
    assert!(err.to_string().contains("unsupported architecture"));
}

#[test]
fn non_sigmoid_activation_is_rejected() {
    let mut rng = SmallRng::seed_from_u64(4);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(4, 4, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Relu)),
        Layer::Dense(Dense::new(4, 2, &mut rng)),
    ]);
    let err = Pipeline::from_network(net)
        .with_bits(8)
        .with_alphabets(vec![AlphabetSet::a8()])
        .constrain()
        .expect("projection itself succeeds")
        .compile()
        .unwrap_err();
    assert!(matches!(err, ManError::Compile(_)));
    assert!(err.to_string().contains("sigmoid"));
}

/// The PLAN sigmoid emits `bits - 1` output bits and needs at least 5,
/// so 4- and 5-bit sigmoid networks are rejected at compile time (not
/// by a panic at the first inference) — through the pipeline and
/// through an artifact that claims such a word length. 6 bits works.
#[test]
fn low_bit_sigmoid_networks_are_rejected_at_compile_time() {
    let compile = |bits| {
        Pipeline::from_network(mlp(6))
            .with_bits(bits)
            .with_alphabets(vec![AlphabetSet::a8()])
            .constrain()
            .expect("projection itself succeeds")
            .compile()
    };
    for bits in [4u32, 5] {
        let err = compile(bits).unwrap_err();
        assert!(matches!(err, ManError::Compile(_)), "bits={bits}: {err}");
        assert!(err.to_string().contains("sigmoid"), "bits={bits}: {err}");
    }
    let six = compile(6).expect("6-bit sigmoid networks compile");
    assert_eq!(
        six.session()
            .infer(&[0.5; 8])
            .expect("shape ok")
            .scores
            .len(),
        2
    );

    let json = six.to_json().expect("serializes");
    assert!(json.contains(r#""bits":6"#));
    for bits in [4u32, 5] {
        let tampered = json.replace(r#""bits":6"#, &format!(r#""bits":{bits}"#));
        let err = CompiledModel::from_json(&tampered).unwrap_err();
        assert!(matches!(err, ManError::Compile(_)), "bits={bits}: {err}");
    }
}

#[test]
fn asm_error_identifies_the_offending_quartet() {
    let asm = AsmMultiplier::new(12, AlphabetSet::a2());
    // Magnitude with the middle quartet set to the unsupported value 9.
    let err = asm.decode(9 << 4).unwrap_err();
    assert_eq!(err.index, 1);
    assert_eq!(err.value, 9);
    // The pipeline taxonomy keeps the detail.
    let wrapped: ManError = err.into();
    assert!(wrapped.to_string().contains("quartet 1"));
}

#[test]
fn impossible_clock_is_a_typed_error_not_a_panic() {
    let lib = CellLibrary::nominal_45nm();
    let err = synthesize_adder(32, &lib, 1.0).unwrap_err();
    assert!(err.best_ps > err.clock_ps);
    assert!(err.block.contains("adder32"));
    let wrapped: ManError = err.into();
    assert!(matches!(wrapped, ManError::TimingClosure(_)));
}

#[test]
fn layer_alphabets_get_is_total() {
    let a = LayerAlphabets::uniform(AlphabetSet::a2(), 3);
    assert!(a.get(2).is_some());
    assert!(a.get(3).is_none(), "out of bounds is None, not a panic");
    assert_eq!(a.len(), 3);
    assert!(!a.is_empty());
}

#[test]
fn extreme_inputs_saturate_gracefully() {
    let mut net = mlp(5);
    // Blow the weights up so accumulators hit the PLAN saturation region.
    net.visit_params_mut(|_, _, values, _| {
        for v in values.iter_mut() {
            *v *= 50.0;
        }
    });
    let compiled = Pipeline::from_network(net)
        .with_bits(8)
        .with_alphabets(vec![AlphabetSet::a1()])
        .constrain()
        .expect("projection")
        .compile()
        .expect("compiles");
    let session = compiled.session();
    for pixel in [0.0f32, 0.999, 1.0, 123.0, -5.0] {
        // Out-of-range pixels clamp at quantization; nothing panics.
        let p = session.infer(&[pixel; 8]).expect("shape matches");
        assert_eq!(p.scores.len(), 2);
    }
    // A wrong-length input is a typed error, not a panic deep in the
    // engine.
    match session.infer(&[0.5; 5]) {
        Err(man_repro::ManError::Shape { expected, got }) => {
            assert_eq!((expected, got), (8, 5));
        }
        other => panic!("expected ManError::Shape, got {other:?}"),
    }
}

/// A zoo model's artifact at its default word length under the full
/// alphabet (which needs no training to compile).
fn zoo_artifact(bench: Benchmark) -> String {
    Pipeline::for_benchmark(bench)
        .with_bits(bench.default_bits())
        .with_alphabets(vec![AlphabetSet::a8()])
        .constrain()
        .expect("projection-only pipeline")
        .compile()
        .expect("untampered model compiles")
        .to_json()
        .expect("serializes")
}

/// Loading `json` with the first `from` replaced by `to` fails with a
/// compile error (no panic, no abort), which is returned.
fn tampered_load_error(json: &str, from: &str, to: &str) -> CompileError {
    let tampered = json.replacen(from, to, 1);
    assert_ne!(tampered, json, "the tamper of {from} must hit");
    match CompiledModel::from_json(&tampered) {
        Err(ManError::Compile(e)) => e,
        Err(other) => panic!("{from} → {to}: expected a compile error, got {other}"),
        Ok(_) => panic!("{from} → {to}: the tampered artifact loaded"),
    }
}

fn assert_geometry_error(e: &CompileError, layer: usize, needle: &str) {
    match e {
        CompileError::InvalidGeometry { layer: l, reason } => {
            assert_eq!(*l, layer, "{e}");
            assert!(reason.contains(needle), "{e}");
        }
        other => panic!("expected an invalid geometry, got {other}"),
    }
}

#[test]
fn tampered_dense_input_width_is_a_compile_error() {
    let json = zoo_artifact(Benchmark::DigitsMlp);
    let e = tampered_load_error(&json, "\"in_dim\":1024", "\"in_dim\":2000");
    assert_geometry_error(&e, 0, "102400 weights");
}

#[test]
fn tampered_dense_output_width_is_a_compile_error() {
    let json = zoo_artifact(Benchmark::DigitsMlp);
    let e = tampered_load_error(&json, "\"out_dim\":100", "\"out_dim\":50");
    assert_geometry_error(&e, 0, "where its shape needs 51200");
}

#[test]
fn truncated_layer_formats_are_a_compile_error() {
    let json = zoo_artifact(Benchmark::DigitsMlp);
    let list = "\"layer_formats\":[";
    let start = json.find(list).expect("spec present") + list.len();
    let first = json[start..].find('}').expect("a format") + start + 1;
    let end = json[start..].find(']').expect("list end") + start;
    let full = &json[start..end];
    let e = tampered_load_error(&json, full, &json[start..first]);
    assert!(matches!(e, CompileError::InvalidSpec(_)), "{e}");
    assert!(e.to_string().contains("1 layer formats for 2"), "{e}");
}

#[test]
fn kernel_larger_than_its_input_is_a_compile_error() {
    let json = zoo_artifact(Benchmark::DigitsCnn);
    let e = tampered_load_error(&json, "\"kernel\":5", "\"kernel\":40");
    assert_geometry_error(&e, 0, "kernel 40 does not fit a 32×32 input");
}

#[test]
fn zero_kernel_is_a_compile_error() {
    let json = zoo_artifact(Benchmark::DigitsCnn);
    let e = tampered_load_error(&json, "\"kernel\":5", "\"kernel\":0");
    assert_geometry_error(&e, 0, "kernel 0");
}

#[test]
fn odd_pool_input_is_a_compile_error() {
    let json = zoo_artifact(Benchmark::DigitsCnn);
    let e = tampered_load_error(&json, "\"in_h\":28", "\"in_h\":27");
    assert_geometry_error(&e, 1, "even sides");
}

#[test]
fn tampered_word_length_and_formats_are_compile_errors() {
    let json = zoo_artifact(Benchmark::DigitsMlp);
    // Every `bits` field agrees, so only compile stands between a 40-bit
    // word and the quartet scheme's 16-bit limit.
    match CompiledModel::from_json(&json.replace("\"bits\":8", "\"bits\":40")) {
        Err(ManError::Compile(CompileError::InvalidSpec(msg))) => {
            assert!(msg.contains("word length 40"), "{msg}");
        }
        other => panic!("expected an invalid spec, got {:?}", other.err()),
    }
    let e = tampered_load_error(&json, "\"frac\":7}", "\"frac\":9}");
    assert!(matches!(e, CompileError::InvalidSpec(_)), "{e}");
}

#[test]
fn empty_network_is_a_compile_error() {
    let net: Network = serde_json::from_str(r#"{"layers":[]}"#).expect("parses");
    let spec = QuantSpec::fit(&net, 8);
    let err =
        FixedNet::compile(&net, &spec, &LayerAlphabets::uniform(AlphabetSet::a1(), 0)).unwrap_err();
    assert!(
        matches!(err, CompileError::UnsupportedArchitecture(_)),
        "{err}"
    );
}
