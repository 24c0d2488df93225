//! Model persistence through the single-file artifact format: a
//! `CompiledModel` saves as one JSON document and reloads to
//! bit-identical fixed-point behavior, and the batched
//! `InferenceSession` matches single-shot inference exactly.

use man_repro::man::alphabet::AlphabetSet;
use man_repro::man::fixed::LayerAlphabets;
use man_repro::man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use man_repro::man_nn::network::Network;
use man_repro::{CompiledModel, ManError, Pipeline};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn small_net(seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    Network::new(vec![
        Layer::Dense(Dense::new(24, 12, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(12, 4, &mut rng)),
    ])
}

fn compiled_model(seed: u64, set: AlphabetSet) -> CompiledModel {
    Pipeline::from_network(small_net(seed))
        .with_bits(8)
        .with_alphabets(vec![set])
        .constrain()
        .expect("projection-only pipeline")
        .compile()
        .expect("projected weights compile")
}

fn probe_inputs(n: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| ((i * 5 + j * 3) % 11) as f32 / 11.0)
                .collect()
        })
        .collect()
}

#[test]
fn artifact_roundtrips_bit_identically_through_json() {
    for set in [AlphabetSet::a1(), AlphabetSet::a2(), AlphabetSet::a4()] {
        let model = compiled_model(4, set);
        let json = model.to_json().expect("serializes");
        let reloaded = CompiledModel::from_json(&json).expect("deserializes");
        for x in probe_inputs(16, 24) {
            assert_eq!(
                model.fixed().infer_raw(&x),
                reloaded.fixed().infer_raw(&x),
                "reloaded model must be bit-identical"
            );
        }
        assert_eq!(model.spec(), reloaded.spec());
        assert_eq!(model.alphabets(), reloaded.alphabets());
    }
}

#[test]
fn artifact_roundtrips_through_a_file() {
    let model = compiled_model(9, AlphabetSet::a2());
    let path = std::env::temp_dir().join("man_repro_persistence_test.man.json");
    model.save(&path).expect("saves");
    let reloaded = CompiledModel::load(&path).expect("loads");
    std::fs::remove_file(&path).ok();
    for x in probe_inputs(8, 24) {
        assert_eq!(model.fixed().infer_raw(&x), reloaded.fixed().infer_raw(&x));
    }
}

#[test]
fn artifact_rejects_wrong_format_version_and_garbage() {
    let model = compiled_model(5, AlphabetSet::a1());
    let json = model.to_json().unwrap();

    let wrong_format = json.replacen("man-compiled-model", "other-model", 1);
    assert!(matches!(
        CompiledModel::from_json(&wrong_format),
        Err(ManError::Artifact(_))
    ));

    let wrong_version = json.replacen("\"version\":1", "\"version\":999", 1);
    assert!(matches!(
        CompiledModel::from_json(&wrong_version),
        Err(ManError::Artifact(_))
    ));

    assert!(matches!(
        CompiledModel::from_json("{ not json"),
        Err(ManError::Artifact(_))
    ));

    assert!(matches!(
        CompiledModel::load(std::env::temp_dir().join("man_repro_does_not_exist.json")),
        Err(ManError::Io(_))
    ));
}

#[test]
fn tampered_off_lattice_weights_are_rejected_on_load() {
    // Recompiling on load means an artifact whose network was edited off
    // the lattice cannot silently mis-multiply: swap the MAN assignment
    // for an unconstrained network's weights.
    let strict = compiled_model(6, AlphabetSet::a1());
    let loose_json = compiled_model(6, AlphabetSet::a4()).to_json().unwrap();
    // Graft the strict {1} assignment onto the {1,3,5,7}-projected
    // weights; many of those magnitudes are off the {1} lattice.
    let strict_alphabets = serde_json::to_string(strict.alphabets()).expect("alphabets serialize");
    let loose_alphabets = serde_json::to_string(&LayerAlphabets::uniform(AlphabetSet::a4(), 2))
        .expect("alphabets serialize");
    let tampered = loose_json.replacen(&loose_alphabets, &strict_alphabets, 1);
    assert_ne!(tampered, loose_json, "the graft must hit");
    assert!(matches!(
        CompiledModel::from_json(&tampered),
        Err(ManError::Compile(_))
    ));
}

#[test]
fn infer_batch_matches_single_infer_calls() {
    let model = compiled_model(7, AlphabetSet::a2());
    let batch = probe_inputs(12, 24);

    // Reference: a fresh session per input.
    let singles: Vec<_> = batch
        .iter()
        .map(|x| {
            let fresh = model.session();
            fresh.infer(x).expect("probe inputs match the input layer")
        })
        .collect();
    // Batched: one session, one call for the whole batch.
    let session = model.session();
    let batched = session
        .infer_batch(&batch)
        .expect("probe inputs match the input layer");

    assert_eq!(singles.len(), batched.len());
    for (s, b) in singles.iter().zip(&batched) {
        assert_eq!(s.scores, b.scores, "batched scores must be bit-identical");
        assert_eq!(s.class, b.class);
    }
    // And both agree with the raw engine.
    for (x, b) in batch.iter().zip(&batched) {
        assert_eq!(model.fixed().infer_raw(x), b.scores);
    }
}

/// Operand traces come from the ASM reference datapath
/// (`FixedNet::sample_traces`), never from a session: every layer records
/// real operands for each input, and the session's scores for that same
/// input are the ASM's.
#[test]
fn traced_sessions_capture_real_operands_without_changing_scores() {
    let model = compiled_model(8, AlphabetSet::a1());
    let batch = probe_inputs(4, 24);
    let session = model.session();
    for x in &batch {
        let p = session.infer(x).expect("shape matches");
        assert_eq!(p.scores, model.fixed().infer_raw(x), "session == ASM");
        let traces = model.fixed().sample_traces(std::slice::from_ref(x), 64);
        assert_eq!(traces.len(), model.fixed().layer_count());
        for tr in &traces {
            assert!(!tr.is_empty(), "every layer records operands");
            for i in 0..tr.len() {
                let sign = if tr.w_neg[i] ^ tr.x_neg[i] { -1i64 } else { 1 };
                assert_eq!(
                    tr.product[i],
                    sign * (tr.w_mag[i] as i64) * (tr.x_mag[i] as i64),
                    "trace product must be the real product"
                );
            }
        }
    }
}
