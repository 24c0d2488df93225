//! Property tests of the batch engine's one non-negotiable contract: for
//! ANY model, word length, alphabet, batch and parallelism, a session's
//! scores are bit-identical to the ASM reference datapath
//! `FixedNet::infer_raw` — plus the pool's panic containment, and the
//! persistent pool's reuse story: every parallel call in the process
//! (facade batches, training evaluations) drains the SAME long-lived
//! worker pool, interleaved and across session resizes, without changing
//! a bit.

use man_repro::man::alphabet::AlphabetSet;
use man_repro::man::fixed::argmax_raw;
use man_repro::man::zoo::Benchmark;
use man_repro::man_datasets::GenOptions;
use man_repro::man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use man_repro::man_nn::network::Network;
use man_repro::man_par::{parallel_map, Parallelism};
use man_repro::{CompiledModel, Pipeline};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn any_alphabet() -> impl Strategy<Value = AlphabetSet> {
    prop_oneof![
        Just(AlphabetSet::a1()),
        Just(AlphabetSet::a2()),
        Just(AlphabetSet::a4()),
        Just(AlphabetSet::a8()),
    ]
}

/// `Sequential` for 0, `Threads(n)` for 1..8, `Auto` for 8 — a
/// `0usize..9` draw covers all three settings.
fn parallelism_of(pick: usize) -> Parallelism {
    match pick {
        0 => Parallelism::Sequential,
        n @ 1..=7 => Parallelism::Threads(n),
        _ => Parallelism::Auto,
    }
}

/// A random tiny MLP constrained onto `set`'s lattice and compiled.
/// Below 6 bits the PLAN sigmoid has too few output bits to build, so
/// the model is a single logits layer.
fn random_model(
    seed: u64,
    bits: u32,
    in_dim: usize,
    hidden: usize,
    classes: usize,
    set: AlphabetSet,
) -> CompiledModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    let net = Network::new(if bits < 6 {
        vec![Layer::Dense(Dense::new(in_dim, classes, &mut rng))]
    } else {
        vec![
            Layer::Dense(Dense::new(in_dim, hidden, &mut rng)),
            Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
            Layer::Dense(Dense::new(hidden, classes, &mut rng)),
        ]
    });
    Pipeline::from_network(net)
        .with_bits(bits)
        .with_alphabets(vec![set])
        .constrain()
        .expect("projection-only pipeline")
        .compile()
        .expect("projected weights compile")
}

fn random_batch(seed: u64, rows: usize, in_dim: usize) -> Vec<Vec<f32>> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA7C);
    (0..rows)
        .map(|_| {
            (0..in_dim)
                .map(|_| rand::Rng::gen_range(&mut rng, 0.0f32..1.0))
                .collect()
        })
        .collect()
}

fn scores_of(predictions: Vec<man_repro::Prediction>) -> Vec<(usize, Vec<i64>)> {
    predictions
        .into_iter()
        .map(|p| (p.class, p.scores))
        .collect()
}

/// What the ASM reference datapath answers for every row.
fn oracle(model: &CompiledModel, batch: &[Vec<f32>]) -> Vec<(usize, Vec<i64>)> {
    batch
        .iter()
        .map(|x| {
            let scores = model.fixed().infer_raw(x);
            (argmax_raw(&scores), scores)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Session `infer_batch` == the ASM oracle, across random models ×
    /// word lengths {4, 6, 8, 12, 16} × all four alphabets × batch
    /// sizes 0..64 × `Sequential`/`Threads(1..8)`/`Auto`. A second pass
    /// over the same session must agree too.
    #[test]
    fn parallel_infer_batch_is_bit_identical(
        seed in any::<u64>(),
        bits in prop_oneof![Just(4u32), Just(6u32), Just(8u32), Just(12u32), Just(16u32)],
        set in any_alphabet(),
        in_dim in 4usize..20,
        hidden in 4usize..48,
        classes in 2usize..6,
        rows in 0usize..64,
        pick in 0usize..9,
    ) {
        let model = random_model(seed, bits, in_dim, hidden, classes, set);
        let batch = random_batch(seed, rows, in_dim);
        let want = oracle(&model, &batch);
        let session = model.session().with_parallelism(parallelism_of(pick));
        let got = scores_of(session.infer_batch(&batch).expect("shapes match"));
        prop_assert_eq!(&got, &want);
        let again = scores_of(session.infer_batch(&batch).expect("shapes match"));
        prop_assert_eq!(&again, &want);
    }

    /// A lone row on a threaded session (it resolves to `Sequential`)
    /// agrees with the oracle.
    #[test]
    fn parallel_single_inference_is_bit_identical(
        seed in any::<u64>(),
        set in any_alphabet(),
        hidden in 16usize..64,
        threads in 2usize..8,
    ) {
        let model = random_model(seed, 8, 12, hidden, 3, set);
        let input = random_batch(seed, 1, 12).remove(0);
        let want = model.fixed().infer_raw(&input);
        let parallel = model
            .session().with_parallelism(Parallelism::Threads(threads))
            .infer(&input)
            .expect("shape ok");
        prop_assert_eq!(parallel.class, argmax_raw(&want));
        prop_assert_eq!(parallel.scores, want);
    }

    /// One persistent pool, many tenants: interleaving parallel batches,
    /// an `Auto` session's batches, training-style accuracy evaluations
    /// and session resizes over the SAME process-wide pool (the
    /// `man-par` global pool every parallel call drains) never changes a
    /// bit relative to the oracle — the pool carries no job state from
    /// one call into the next.
    #[test]
    fn pool_reuse_across_interleaved_tenants_is_bit_identical(
        seed in any::<u64>(),
        set in any_alphabet(),
        hidden in 8usize..48,
        rows in 1usize..24,
        // Each element is one interleaved operation; the value picks
        // the tenant and (for resizes) the new worker count.
        ops in prop::collection::vec(0usize..12, 4..10),
    ) {
        let in_dim = 10;
        let model = random_model(seed, 8, in_dim, hidden, 4, set);
        let batch = random_batch(seed, rows, in_dim);
        let labels: Vec<usize> = (0..rows).map(|i| i % 4).collect();

        let want = oracle(&model, &batch);
        let seq_accuracy = want
            .iter()
            .zip(&labels)
            .filter(|((class, _), label)| class == *label)
            .count() as f64
            / rows as f64;

        // Long-lived tenants sharing the pool across the op sequence.
        let mut plain = model.session().with_parallelism(Parallelism::Threads(4));
        let auto = model.session().with_parallelism(Parallelism::Auto);
        for op in ops {
            match op % 4 {
                0 => {
                    let got = scores_of(
                        plain.infer_batch(&batch).expect("shapes match"),
                    );
                    prop_assert_eq!(&got, &want, "plain tenant diverged");
                }
                1 => {
                    let got = scores_of(
                        auto.infer_batch(&batch).expect("shapes match"),
                    );
                    prop_assert_eq!(&got, &want, "auto tenant diverged");
                }
                2 => {
                    // Training-eval tenant: row-sharded accuracy over
                    // the same pool (Auto exercises the tuner).
                    let p = if op < 6 { Parallelism::Threads(1 + op) } else { Parallelism::Auto };
                    let acc = model.fixed().accuracy_par(&batch, &labels, p);
                    prop_assert_eq!(acc, seq_accuracy, "eval tenant diverged");
                }
                _ => {
                    // Resize: a fresh session on the same pool; results
                    // must survive the resize.
                    plain = model.session().with_parallelism(Parallelism::Threads(1 + op % 7));
                    let got = scores_of(
                        plain.infer_batch(&batch).expect("shapes match"),
                    );
                    prop_assert_eq!(&got, &want, "resized tenant diverged");
                }
            }
        }
    }

    /// `Parallelism::Auto` — whatever plan the tuner resolves (rows or
    /// sequential) — is bit-identical to the oracle.
    #[test]
    fn auto_tuned_sessions_are_bit_identical(
        seed in any::<u64>(),
        set in any_alphabet(),
        hidden in 8usize..64,
        rows in 0usize..32,
    ) {
        let model = random_model(seed, 8, 14, hidden, 3, set);
        let batch = random_batch(seed, rows, 14);
        let want = oracle(&model, &batch);
        let session = model.session().with_parallelism(Parallelism::Auto);
        let auto = scores_of(session.infer_batch(&batch).expect("shapes match"));
        prop_assert_eq!(&auto, &want);
    }
}

/// Every Table IV model — dense, conv, requantization and pool stages —
/// at its default word length, under the MAN set `{1}` and the full
/// alphabet, agrees with the oracle for a few rows: batched, where each
/// layer runs over every row of a shard before the next layer starts,
/// on the caller or split into contiguous row ranges over 2 to 4
/// workers, and one row at a time.
#[test]
fn zoo_models_match_the_asm_oracle() {
    for bench in Benchmark::ALL {
        let ds = bench.dataset(&GenOptions {
            train: 0,
            test: 3,
            seed: 0x2E0,
        });
        for set in [AlphabetSet::a1(), AlphabetSet::a8()] {
            let model = Pipeline::for_benchmark(bench)
                .with_bits(bench.default_bits())
                .with_alphabets(vec![set.clone()])
                .constrain()
                .expect("projection-only pipeline")
                .compile()
                .expect("projected weights compile");
            let want = oracle(&model, &ds.test_images);
            for parallelism in [
                Parallelism::Sequential,
                Parallelism::Threads(2),
                Parallelism::Threads(3),
                Parallelism::Threads(4),
                Parallelism::Auto,
            ] {
                let session = model.session().with_parallelism(parallelism);
                let got = scores_of(session.infer_batch(&ds.test_images).expect("shapes match"));
                assert_eq!(got, want, "{} {set} {parallelism:?}", bench.name());
                let single = session.infer(&ds.test_images[0]).expect("shape ok");
                assert_eq!(single.scores, want[0].1, "{} {set} one row", bench.name());
            }
        }
    }
}

/// A panic inside one worker must surface to the caller — with its
/// payload — after every worker slot has been accounted for, and leave
/// the engine usable: the containment discipline the serving scheduler
/// relies on (its `dispatch` then converts the panic into a typed
/// error). With the persistent pool this is a sharper claim than
/// before: the SAME pool threads that contained the panic keep serving
/// every later job, so the test drives several post-panic tenants
/// (parallel sessions, training eval) — and panics again — through the
/// reused pool.
#[test]
fn panic_in_worker_is_contained_and_pool_survives_reuse() {
    let poison = |marker: usize| {
        std::panic::catch_unwind(move || {
            parallel_map(Parallelism::Threads(4), 64, move |i| {
                if i == marker {
                    panic!("poisoned row");
                }
                i as u64
            })
        })
    };
    let payload = poison(13).expect_err("worker panic must propagate");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"poisoned row"));

    // The pool is unaffected afterwards: a real model still infers,
    // in parallel, bit-identically, through the same pool threads.
    let model = random_model(7, 8, 10, 24, 3, AlphabetSet::a2());
    let batch = random_batch(7, 16, 10);
    let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();
    let want = oracle(&model, &batch);
    let parallel = scores_of(
        model
            .session()
            .with_parallelism(Parallelism::Threads(4))
            .infer_batch(&batch)
            .expect("shapes match"),
    );
    assert_eq!(parallel, want);

    // A second panic on the reused pool is contained just the same...
    let payload = poison(31).expect_err("second panic must propagate too");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"poisoned row"));

    // ...and the other tenants keep getting exact answers.
    let resized = scores_of(
        model
            .session()
            .with_parallelism(Parallelism::Threads(3))
            .infer_batch(&batch)
            .expect("shapes match"),
    );
    assert_eq!(resized, want);
    let seq_acc = model.fixed().accuracy(&batch, &labels);
    for p in [Parallelism::Threads(4), Parallelism::Auto] {
        assert_eq!(model.fixed().accuracy_par(&batch, &labels, p), seq_acc);
    }
}

/// Session `stats` surface the configuration and the plan the most
/// recent batch resolved to.
#[test]
fn session_stats_report_the_resolved_plan() {
    let model = random_model(22, 8, 12, 32, 3, AlphabetSet::a2());
    let batch = random_batch(22, 16, 12);
    let session = model.session().with_parallelism(Parallelism::Threads(2));
    let fresh = session.stats();
    assert_eq!(fresh.plan, "unresolved", "no batch has resolved yet");
    assert_eq!(fresh.workers, 2);
    assert_eq!(fresh.parallelism, "threads(2)");
    session.infer_batch(&batch).expect("shapes match");
    let stats = session.stats();
    assert_eq!(stats.plan, "rows(2)");
    assert_eq!(session.last_plan().map(|p| p.label()), Some(stats.plan));
    session.infer(&batch[0]).expect("shape ok");
    assert_eq!(session.stats().plan, "sequential");
    assert_eq!(stats.macs_per_row, model.macs_per_inference());
}
