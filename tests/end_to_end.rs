//! Cross-crate integration through the typed-stage pipeline: dataset ->
//! training -> constraint -> fixed inference -> hardware cost, on
//! small-but-real configurations.

use man_repro::man::alphabet::AlphabetSet;
use man_repro::man::engine::CostModel;
use man_repro::man::zoo::Benchmark;
use man_repro::man_datasets::GenOptions;
use man_repro::{ManError, Pipeline};

fn small_opts(seed: u64) -> GenOptions {
    GenOptions {
        train: 500,
        test: 150,
        seed,
    }
}

fn quick(cfg: &mut man_repro::man::train::MethodologyConfig) {
    cfg.initial_epochs = 6;
    cfg.retrain_epochs = 3;
}

#[test]
fn faces_methodology_reaches_usable_accuracy() {
    let ds = Benchmark::Faces.dataset(&small_opts(42));
    let trained = Pipeline::for_benchmark(Benchmark::Faces)
        .with_bits(8)
        .with_data(&ds)
        .configure(quick)
        .train()
        .expect("methodology runs");
    let j = trained
        .conventional_accuracy
        .expect("trained model records J");
    assert!(j > 0.75, "8-bit conventional baseline too weak: {j}");
    // Error resilience: even the first attempted (smallest) alphabet set
    // stays within a few points of the conventional baseline.
    let first = &trained.attempts[0];
    assert!(
        first.accuracy > j - 0.08,
        "MAN lost too much: {} vs {j}",
        first.accuracy
    );
    // The winning model compiles and serves.
    let compiled = trained.compile().expect("selected model compiles");
    let session = compiled.session();
    let predictions = session
        .infer_batch(&ds.test_images[..10])
        .expect("test images match the input layer");
    assert_eq!(predictions.len(), 10);
}

#[test]
fn digits_energy_ordering_matches_paper() {
    // MAN < ASM2 < conventional in energy, at identical cycle counts.
    // Cost studies need a *trained*, constrained, compiled network (so
    // operand traces carry realistic activity) but no constrained
    // retraining — the baseline + projection-only pipeline path.
    let ds = Benchmark::DigitsMlp.dataset(&small_opts(7));
    let baseline = Pipeline::for_benchmark(Benchmark::DigitsMlp)
        .with_bits(8)
        .with_data(&ds)
        .configure(quick)
        .train_baseline()
        .expect("brief training runs");
    let mut model = CostModel::default();
    model.stream_limit = 300;

    let mut energy = Vec::new();
    let mut cycles = Vec::new();
    for set in [None, Some(AlphabetSet::a2()), Some(AlphabetSet::a1())] {
        let pipeline = Pipeline::from_network(baseline.network().clone())
            .with_bits(8)
            .with_alphabets(vec![set.clone().unwrap_or_else(AlphabetSet::a8)]);
        let compiled = pipeline
            .constrain()
            .expect("projection")
            .compile()
            .expect("compiles");
        let costed = match set {
            None => compiled.cost_conventional(&mut model, &ds.test_images),
            Some(_) => compiled.cost(&mut model, &ds.test_images),
        }
        .expect("synthesis at paper clocks succeeds");
        energy.push(costed.report.energy_pj);
        cycles.push(costed.report.cycles);
    }
    assert!(
        energy[2] < energy[1],
        "MAN {} !< ASM2 {}",
        energy[2],
        energy[1]
    );
    assert!(
        energy[1] < energy[0],
        "ASM2 {} !< conv {}",
        energy[1],
        energy[0]
    );
    assert_eq!(cycles[0], cycles[1], "iso-speed engines share cycle counts");
    assert_eq!(cycles[1], cycles[2]);
}

#[test]
fn cnn_compiles_and_infers_in_fixed_point() {
    let ds = Benchmark::DigitsCnn.dataset(&GenOptions {
        train: 150,
        test: 40,
        seed: 3,
    });
    let baseline = Pipeline::for_benchmark(Benchmark::DigitsCnn)
        .with_bits(12)
        .with_data(&ds)
        .configure(|cfg| {
            cfg.initial_epochs = 2;
            cfg.retrain_epochs = 3;
        })
        .train_baseline()
        .expect("baseline trains");
    assert_eq!(
        baseline.spec().layer_formats().len(),
        6,
        "LeNet has 6 parameterized layers"
    );
    // Conventional path: 12-bit quantization tracks the float network.
    assert!(
        (baseline.float_accuracy - baseline.conventional_accuracy).abs() < 0.25,
        "12-bit quantization should track float: {} vs {}",
        baseline.float_accuracy,
        baseline.conventional_accuracy
    );
    // MAN path: projection-only from the trained restore point, through
    // the pipeline's network source.
    let man = Pipeline::from_network(baseline.network().clone())
        .with_bits(12)
        .with_alphabets(vec![AlphabetSet::a1()])
        .constrain()
        .expect("projects")
        .compile()
        .expect("compiles");
    let _ = man.accuracy(&ds.test_images, &ds.test_labels);
}

#[test]
fn pipeline_errors_are_typed_not_panics() {
    // A custom-network pipeline without data cannot train.
    let ds = Benchmark::Faces.dataset(&GenOptions {
        train: 10,
        test: 10,
        seed: 1,
    });
    let net = Benchmark::Faces.build_network(0);
    let err = Pipeline::from_network(net.clone())
        .train_baseline()
        .unwrap_err();
    assert!(matches!(err, ManError::Config(_)), "{err}");

    // An empty candidate list is a configuration error.
    let err = Pipeline::from_network(net.clone())
        .with_alphabets(vec![])
        .with_data(&ds)
        .train_baseline()
        .unwrap_err();
    assert!(matches!(err, ManError::Config(_)), "{err}");

    // An out-of-range word length is a configuration error.
    let err = Pipeline::from_network(net.clone())
        .with_bits(40)
        .with_data(&ds)
        .train_baseline()
        .unwrap_err();
    assert!(matches!(err, ManError::Config(_)), "{err}");

    // An explicit assignment on a training path is rejected loudly
    // instead of being silently ignored.
    use man_repro::man::alphabet::AlphabetSet;
    use man_repro::man::fixed::LayerAlphabets;
    let err = Pipeline::from_network(net)
        .with_assignment(LayerAlphabets::uniform(AlphabetSet::a1(), 2))
        .with_data(&ds)
        .train_baseline()
        .unwrap_err();
    assert!(matches!(err, ManError::Config(_)), "{err}");
    assert!(err.to_string().contains("constrain"));
}

#[test]
fn concurrent_serving_is_bit_identical_to_sequential_inference() {
    // The batch-equivalence property, extended to the serving runtime:
    // N client threads hammering one model through the micro-batching
    // scheduler receive exactly the scores a sequential session
    // produces, whatever the interleaving and batch composition.
    use man_serve::ModelRegistry;

    let ds = Benchmark::Faces.dataset(&small_opts(11));
    let compiled = Pipeline::for_benchmark(Benchmark::Faces)
        .with_bits(8)
        .with_alphabets(vec![AlphabetSet::a1()])
        .constrain()
        .expect("projection")
        .compile()
        .expect("projected weights compile");
    let probes = &ds.test_images[..32];
    let sequential: Vec<Vec<i64>> = {
        let session = compiled.session();
        probes
            .iter()
            .map(|x| session.infer(x).expect("dataset image").scores)
            .collect()
    };

    let registry = ModelRegistry::with_defaults();
    registry.install("faces", compiled);
    std::thread::scope(|scope| {
        for t in 0..6usize {
            let registry = &registry;
            let sequential = &sequential;
            scope.spawn(move || {
                for round in 0..3 {
                    for i in 0..probes.len() {
                        let i = (i + t * 5 + round * 13) % probes.len();
                        let p = registry
                            .predict("faces", probes[i].clone())
                            .expect("serving must not fail");
                        assert_eq!(
                            p.scores, sequential[i],
                            "thread {t} probe {i}: serving must be bit-identical"
                        );
                    }
                }
            });
        }
    });
    let stats = registry.stats(Some("faces")).expect("stats");
    assert_eq!(stats[0].completed, 6 * 3 * 32);
    assert_eq!(stats[0].errors + stats[0].rejected, 0);
}

#[test]
fn asm_functional_model_matches_gate_level_datapath() {
    // The software ASM and the synthesized netlist agree bit-for-bit.
    use man_repro::man_hw::components::adder::AdderKind;
    use man_repro::man_hw::components::asm::asm_mult_stage;
    use man_repro::man_hw::eval::Evaluator;

    let alphabet = AlphabetSet::a2();
    let asm = man_repro::man::asm::AsmMultiplier::new(8, alphabet.clone());
    let stage = asm_mult_stage(8, alphabet.members(), AdderKind::Ripple);
    let mut sim = Evaluator::new(stage.netlist());
    for w_mag in 0..128u32 {
        if asm.decode(w_mag).is_err() {
            continue;
        }
        for x in [1u32, 55, 127] {
            let bank = asm.precompute(x);
            sim.step(&[
                ("w_mag", w_mag as u64),
                ("alpha1", bank[0]),
                ("alpha3", bank[1]),
                ("w_sign", 0),
                ("x_sign", 0),
            ]);
            assert_eq!(
                sim.output("p_mag"),
                asm.multiply(w_mag, &bank).unwrap(),
                "w={w_mag} x={x}"
            );
        }
    }
}

#[test]
fn plan_activation_shared_between_engine_and_hardware() {
    use man_repro::man_hw::components::activation::{
        activation_unit, activation_unit_fixed, PlanParams,
    };
    use man_repro::man_hw::components::adder::AdderKind;
    use man_repro::man_hw::eval::Evaluator;

    let params = PlanParams {
        in_bits: 11,
        in_frac: 7,
        out_bits: 7,
    };
    let acc_bits = 20u32;
    let acc_frac = 13u32;
    let unit = activation_unit(acc_bits, acc_frac, &params, AdderKind::Ripple);
    let mut sim = Evaluator::new(unit.netlist());
    let mask = (1u64 << acc_bits) - 1;
    for acc in (-400_000i64..400_000).step_by(17_771) {
        sim.step(&[("acc", (acc as u64) & mask)]);
        assert_eq!(
            sim.output("y"),
            activation_unit_fixed(acc, acc_frac, &params),
            "acc={acc}"
        );
    }
}

/// A four-class toy task (which input pair sums largest) and a small
/// sigmoid MLP for it, at 6 bits and one retraining epoch so that no
/// alphabet set recovers the conventional accuracy: the baseline `J` is
/// 0.92, and `{1}`, `{1,3}`, `{1,3,5,7}` retrain to 0.90, 0.88, 0.91.
fn toy_pipeline(candidates: Vec<AlphabetSet>, quality: f64) -> Pipeline {
    use man_repro::man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
    use man_repro::man_nn::network::Network;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let mut rng = SmallRng::seed_from_u64(5);
    let (mut images, mut labels) = (Vec::new(), Vec::new());
    for _ in 0..300 {
        let x: Vec<f32> = (0..8).map(|_| rng.gen_range(0.0..1.0)).collect();
        let sums: Vec<f32> = x.chunks(2).map(|c| c[0] + c[1]).collect();
        labels.push((0..4).max_by(|&a, &b| sums[a].total_cmp(&sums[b])).unwrap());
        images.push(x);
    }
    let data = man_repro::TrainingData::new(
        images[..200].to_vec(),
        labels[..200].to_vec(),
        images[200..].to_vec(),
        labels[200..].to_vec(),
    )
    .expect("both splits are non-empty");
    let net = Network::new(vec![
        Layer::Dense(Dense::new(8, 12, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(12, 4, &mut rng)),
    ]);
    Pipeline::from_network(net)
        .with_parallelism(man_repro::Parallelism::Sequential)
        .with_bits(6)
        .with_data(data)
        .with_alphabets(candidates)
        .configure(move |cfg| {
            cfg.initial_epochs = 20;
            cfg.retrain_epochs = 1;
            cfg.quality = quality;
        })
}

#[test]
fn select_keeps_the_first_accepted_set_or_else_the_best_k() {
    let params = |trained: &man_repro::TrainedModel| {
        let mut net = trained.network().clone();
        let mut bits = Vec::new();
        net.visit_params_mut(|_, _, values, _| bits.extend(values.iter().map(|v| v.to_bits())));
        bits
    };
    let attempts = |trained: &man_repro::TrainedModel| {
        let a = &trained.attempts;
        a.iter()
            .map(|a| {
                (
                    a.label.clone(),
                    a.accuracy.to_bits(),
                    a.loss_pp.to_bits(),
                    a.accepted,
                )
            })
            .collect::<Vec<_>>()
    };

    // K >= 0.975 J rejects {1,3} and accepts {1}: the search stops there
    // and never retrains {1,3,5,7}.
    let order = vec![AlphabetSet::a2(), AlphabetSet::a1(), AlphabetSet::a4()];
    let first = toy_pipeline(order.clone(), 0.975).train().expect("trains");
    assert_eq!(first.attempts.len(), 2, "{:?}", first.attempts);
    assert!(!first.attempts[0].accepted && first.attempts[1].accepted);
    assert_eq!(first.selected, Some(1));
    assert!(first.accepted());
    assert_eq!(first.alphabets().label(), AlphabetSet::a1().label());

    // No set meets K >= J: every candidate is tried and the best-K one kept.
    let sets = vec![AlphabetSet::a1(), AlphabetSet::a2(), AlphabetSet::a4()];
    let none = toy_pipeline(sets.clone(), 1.0).train().expect("trains");
    assert_eq!(none.attempts.len(), 3, "{:?}", none.attempts);
    assert!(none.attempts.iter().all(|a| !a.accepted));
    assert_eq!(none.selected, None);
    assert!(!none.accepted());
    let best = none.attempts.iter().map(|a| a.accuracy).fold(0.0, f64::max);
    let kept = none
        .attempts
        .iter()
        .find(|a| a.label == none.alphabets().label());
    assert_eq!(kept.map(|a| a.accuracy), Some(best), "{:?}", none.attempts);

    // Speculative parallel retraining reports and keeps exactly what the
    // sequential search does.
    for (candidates, quality, sequential) in [(order, 0.975, &first), (sets, 1.0, &none)] {
        let parallel = toy_pipeline(candidates, quality)
            .with_parallelism(man_repro::Parallelism::Threads(2))
            .train()
            .expect("trains");
        assert_eq!(attempts(&parallel), attempts(sequential));
        assert_eq!(parallel.selected, sequential.selected);
        assert_eq!(params(&parallel), params(sequential));
    }
}
