//! Sweep-style integration tests: every alphabet set × word length
//! combination must survive the whole pipeline, and the monotonicity the
//! paper relies on (more alphabets ⇒ finer lattice ⇒ no worse projection
//! error) must hold end to end.

use man_repro::man::alphabet::AlphabetSet;
use man_repro::man::asm::AsmMultiplier;
use man_repro::man::constrain::WeightLattice;
use man_repro::man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use man_repro::man_nn::network::Network;
use man_repro::{Parallelism, Pipeline};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn sets() -> Vec<AlphabetSet> {
    vec![
        AlphabetSet::a1(),
        AlphabetSet::a2(),
        AlphabetSet::a4(),
        AlphabetSet::a8(),
    ]
}

#[test]
fn every_configuration_compiles_and_infers() {
    for bits in [8u32, 12] {
        for set in sets() {
            let mut rng = SmallRng::seed_from_u64(11);
            let net = Network::new(vec![
                Layer::Dense(Dense::new(10, 7, &mut rng)),
                Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
                Layer::Dense(Dense::new(7, 3, &mut rng)),
            ]);
            let compiled = Pipeline::from_network(net)
                .with_bits(bits)
                .with_alphabets(vec![set.clone()])
                .constrain()
                .unwrap_or_else(|e| panic!("bits={bits} {set}: {e}"))
                .compile()
                .unwrap_or_else(|e| panic!("bits={bits} {set}: {e}"));
            let session = compiled.session();
            let p = session.infer(&[0.4; 10]).expect("input matches");
            assert_eq!(p.scores.len(), 3, "bits={bits} {set}");
            assert!(p.class < 3, "bits={bits} {set}");
        }
    }
}

#[test]
fn lattice_density_is_monotone_in_alphabet_count() {
    for bits in [8u32, 12] {
        let sizes: Vec<usize> = sets()
            .iter()
            .map(|s| WeightLattice::new(bits, s).len())
            .collect();
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]),
            "bits={bits}: lattice sizes must strictly grow: {sizes:?}"
        );
        // The full alphabet covers every magnitude.
        assert_eq!(sizes[3], 1usize << (bits - 1), "bits={bits}");
    }
}

#[test]
fn larger_alphabets_never_increase_projection_error() {
    for bits in [8u32, 12] {
        let lattices: Vec<WeightLattice> =
            sets().iter().map(|s| WeightLattice::new(bits, s)).collect();
        let max = (1u32 << (bits - 1)) - 1;
        for mag in (0..=max).step_by(13) {
            let mut last = u64::MAX;
            for (i, lat) in lattices.iter().enumerate() {
                let err = (lat.project_exact(mag) as i64 - mag as i64).unsigned_abs();
                assert!(
                    err <= last,
                    "bits={bits} mag={mag}: error grew at set index {i}"
                );
                last = err;
            }
        }
    }
}

#[test]
fn asm_plan_reuse_matches_fresh_decode() {
    // Decoding once and re-applying across many inputs (what the compiled
    // engine does) equals decoding per multiplication.
    let asm = AsmMultiplier::new(8, AlphabetSet::a4());
    let lattice = WeightLattice::new(8, &AlphabetSet::a4());
    for &w in lattice.values().iter().step_by(3) {
        let plan = asm.decode(w).unwrap();
        for x in [0u32, 1, 64, 127] {
            let bank = asm.precompute(x);
            assert_eq!(asm.apply(&plan, &bank), asm.multiply(w, &bank).unwrap());
        }
    }
}

#[test]
fn every_configuration_is_bit_identical_under_parallel_sessions() {
    // The sweep of `every_configuration_compiles_and_infers`, re-run
    // through the parallel batch engine: every alphabet set × word
    // length × thread count must reproduce the sequential batch exactly.
    let batch: Vec<Vec<f32>> = (0..12)
        .map(|i| (0..10).map(|j| ((i * 3 + j) % 7) as f32 / 7.0).collect())
        .collect();
    for bits in [8u32, 12] {
        for set in sets() {
            let mut rng = SmallRng::seed_from_u64(11);
            let net = Network::new(vec![
                Layer::Dense(Dense::new(10, 7, &mut rng)),
                Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
                Layer::Dense(Dense::new(7, 3, &mut rng)),
            ]);
            let compiled = Pipeline::from_network(net)
                .with_bits(bits)
                .with_alphabets(vec![set.clone()])
                .constrain()
                .unwrap_or_else(|e| panic!("bits={bits} {set}: {e}"))
                .compile()
                .unwrap_or_else(|e| panic!("bits={bits} {set}: {e}"));
            let expected: Vec<Vec<i64>> = compiled
                .session()
                .infer_batch(&batch)
                .expect("inputs match")
                .into_iter()
                .map(|p| p.scores)
                .collect();
            for p in [
                Parallelism::Threads(2),
                Parallelism::Threads(5),
                Parallelism::Auto,
            ] {
                let got: Vec<Vec<i64>> = compiled
                    .session()
                    .with_parallelism(p)
                    .infer_batch(&batch)
                    .expect("inputs match")
                    .into_iter()
                    .map(|x| x.scores)
                    .collect();
                assert_eq!(got, expected, "bits={bits} {set} {}", p.label());
            }
        }
    }
}

#[test]
fn mixed_assignments_flow_through_the_pipeline() {
    use man_repro::man::fixed::LayerAlphabets;
    // Section VI-E style: MAN early, richer sets late — via the explicit
    // per-layer assignment on the projection-only path.
    let mut rng = SmallRng::seed_from_u64(21);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(16, 10, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(10, 6, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(6, 3, &mut rng)),
    ]);
    let assignment = LayerAlphabets::mixed(vec![
        AlphabetSet::a1(),
        AlphabetSet::a2(),
        AlphabetSet::a4(),
    ]);
    let compiled = Pipeline::from_network(net)
        .with_bits(8)
        .with_assignment(assignment.clone())
        .constrain()
        .expect("mixed projection")
        .compile()
        .expect("mixed compile");
    assert_eq!(compiled.alphabets(), &assignment);
    assert_eq!(compiled.fixed().layer_count(), 3);
    let scores = compiled.fixed().infer_raw(&[0.3; 16]);
    assert_eq!(scores.len(), 3);
}
