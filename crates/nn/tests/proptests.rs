//! Property-based tests for the training substrate: analytic gradients
//! must match finite differences for randomly shaped networks, losses
//! must behave like losses, and the batch-major passes must reproduce the
//! one-row arithmetic bit for bit.

use man_nn::layers::{Activation, ActivationLayer, Conv2d, Dense, Layer, ScaledAvgPool};
use man_nn::loss::Loss;
use man_nn::network::Network;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn any_activation() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::Sigmoid),
        Just(Activation::Tanh),
        Just(Activation::Relu)
    ]
}

/// A random Dense MLP (`cnn == false`) or Conv→Pool→Dense stack, with the
/// given activations between its parameterized layers. Returns the
/// network and its input width.
fn random_stack(rng: &mut SmallRng, cnn: bool, acts: [Activation; 2]) -> (Network, usize) {
    let classes = rng.gen_range(2usize..5);
    let act = |a| Layer::Activation(ActivationLayer::new(a));
    if cnn {
        let ch = rng.gen_range(1usize..3);
        let layers = vec![
            Layer::Conv2d(Conv2d::new(1, ch, 3, 6, 6, rng)),
            act(acts[0]),
            Layer::ScaledAvgPool(ScaledAvgPool::new(ch, 4, 4)),
            act(acts[1]),
            Layer::Dense(Dense::new(ch * 4, classes, rng)),
        ];
        (Network::new(layers), 36)
    } else {
        let inputs = rng.gen_range(1usize..40);
        let hidden = rng.gen_range(1usize..20);
        let layers = vec![
            Layer::Dense(Dense::new(inputs, hidden, rng)),
            act(acts[0]),
            Layer::Dense(Dense::new(hidden, hidden, rng)),
            act(acts[1]),
            Layer::Dense(Dense::new(hidden, classes, rng)),
        ];
        (Network::new(layers), inputs)
    }
}

/// `n` random rows (row-major) and labels for a network.
fn random_rows(
    rng: &mut SmallRng,
    width: usize,
    n: usize,
    classes: usize,
) -> (Vec<f32>, Vec<usize>) {
    let x = (0..n * width)
        .map(|_| rng.gen_range(-1.5f32..1.5))
        .collect();
    let labels = (0..n).map(|_| rng.gen_range(0..classes)).collect();
    (x, labels)
}

fn classes_of(net: &Network) -> usize {
    match net.layers().last() {
        Some(Layer::Dense(d)) => d.out_dim,
        _ => unreachable!("random stacks end in a dense layer"),
    }
}

fn grad_bits(net: &mut Network) -> Vec<u32> {
    let mut bits = Vec::new();
    net.visit_params_mut(|_, _, _, grads| bits.extend(grads.iter().map(|g| g.to_bits())));
    bits
}

/// Checks analytic vs central-difference gradients for all parameters.
fn max_gradient_error(net: &mut Network, x: &[f32], label: usize) -> f32 {
    let loss = Loss::SoftmaxCrossEntropy;
    net.zero_grads();
    let _ = net.accumulate_batch(x, &[label], loss);
    let mut analytic = Vec::new();
    net.visit_params_mut(|_, _, _, grads| analytic.extend_from_slice(grads));
    let eps = 1e-3f32;
    let mut max_err = 0.0f32;
    for (p, &expected) in analytic.iter().enumerate() {
        let bump = |net: &mut Network, delta: f32| {
            let mut k = 0;
            net.visit_params_mut(|_, _, values, _| {
                for v in values.iter_mut() {
                    if k == p {
                        *v += delta;
                    }
                    k += 1;
                }
            });
        };
        bump(net, eps);
        let (lp, _) = loss.loss_and_grad(&net.infer(x), label);
        bump(net, -2.0 * eps);
        let (lm, _) = loss.loss_and_grad(&net.infer(x), label);
        bump(net, eps);
        max_err = max_err.max(((lp - lm) / (2.0 * eps) - expected).abs());
    }
    max_err
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Dense/sigmoid stacks of random shape have correct gradients.
    #[test]
    fn random_mlp_gradients_check(
        seed in any::<u64>(),
        hidden in 2usize..8,
        inputs in 2usize..6,
        classes in 2usize..4,
        act in prop_oneof![Just(Activation::Sigmoid), Just(Activation::Tanh), Just(Activation::Relu)],
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = Network::new(vec![
            Layer::Dense(Dense::new(inputs, hidden, &mut rng)),
            Layer::Activation(ActivationLayer::new(act)),
            Layer::Dense(Dense::new(hidden, classes, &mut rng)),
        ]);
        let x: Vec<f32> = (0..inputs).map(|i| ((seed as usize + i) % 7) as f32 / 7.0 - 0.4).collect();
        let err = max_gradient_error(&mut net, &x, seed as usize % classes);
        prop_assert!(err < 2e-2, "gradient error {err}");
    }

    /// Conv + trainable-pool stacks have correct gradients.
    #[test]
    fn random_cnn_gradients_check(seed in any::<u64>(), channels in 1usize..3) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = Network::new(vec![
            Layer::Conv2d(Conv2d::new(1, channels, 3, 6, 6, &mut rng)),
            Layer::ScaledAvgPool(ScaledAvgPool::new(channels, 4, 4)),
            Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
            Layer::Dense(Dense::new(channels * 4, 2, &mut rng)),
        ]);
        let x: Vec<f32> = (0..36).map(|i| ((i * 13 + seed as usize) % 11) as f32 / 11.0).collect();
        let err = max_gradient_error(&mut net, &x, seed as usize % 2);
        prop_assert!(err < 2e-2, "gradient error {err}");
    }

    /// Softmax cross-entropy: loss non-negative, gradient sums to ~0, and
    /// nudging the correct logit up always reduces the loss.
    #[test]
    fn softmax_ce_properties(logits in prop::collection::vec(-5.0f32..5.0, 2..8), pick in any::<usize>()) {
        let label = pick % logits.len();
        let (l, g) = Loss::SoftmaxCrossEntropy.loss_and_grad(&logits, label);
        prop_assert!(l >= 0.0);
        prop_assert!(g.iter().sum::<f32>().abs() < 1e-4);
        let mut better = logits.clone();
        better[label] += 0.1;
        let (l2, _) = Loss::SoftmaxCrossEntropy.loss_and_grad(&better, label);
        prop_assert!(l2 <= l + 1e-6);
    }

    /// Inference is deterministic and independent of training caches.
    #[test]
    fn infer_is_pure(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = Network::new(vec![
            Layer::Dense(Dense::new(4, 3, &mut rng)),
            Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
            Layer::Dense(Dense::new(3, 2, &mut rng)),
        ]);
        let x = [0.1f32, -0.2, 0.3, 0.7];
        let a = net.infer(&x);
        let _ = net.forward(&[0.9, 0.9, 0.9, 0.9], 1); // pollute caches
        let b = net.infer(&x);
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One `accumulate_batch` over `n` rows gives the same per-row losses
    /// and every gradient bit as `n` one-row batches made in row order —
    /// across Dense lane-block boundaries (8, 9, 16, 17) and for every
    /// layer kind.
    #[test]
    fn batch_accumulation_is_bit_identical_to_one_row_batches(
        seed in any::<u64>(),
        cnn in any::<bool>(),
        act0 in any_activation(),
        act1 in any_activation(),
        n in prop_oneof![Just(1usize), Just(2usize), Just(7usize), Just(8usize), Just(9usize), Just(16usize), Just(17usize)],
        mse in any::<bool>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut batched, width) = random_stack(&mut rng, cnn, [act0, act1]);
        let mut one_by_one = batched.clone();
        let (x, labels) = random_rows(&mut rng, width, n, classes_of(&batched));
        let loss = if mse { Loss::Mse } else { Loss::SoftmaxCrossEntropy };
        // Gradients accumulate onto non-zero state, as within an epoch.
        for net in [&mut batched, &mut one_by_one] {
            net.zero_grads();
            let _ = net.accumulate_batch(&x[..width], &labels[..1], loss);
        }
        let batch_losses = batched.accumulate_batch(&x, &labels, loss);
        let row_losses: Vec<f32> = x
            .chunks_exact(width)
            .zip(&labels)
            .map(|(row, &label)| one_by_one.accumulate_batch(row, &[label], loss)[0])
            .collect();
        let bits = |v: &[f32]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&batch_losses), bits(&row_losses));
        prop_assert_eq!(grad_bits(&mut batched), grad_bits(&mut one_by_one));
    }

    /// Batched accuracy (sequential and row-sharded) counts exactly the
    /// rows whose one-row `predict` hits the label, and batched inference
    /// equals one-row inference bit for bit.
    #[test]
    fn batched_accuracy_matches_per_row_predict(
        seed in any::<u64>(),
        cnn in any::<bool>(),
        act0 in any_activation(),
        act1 in any_activation(),
        n in 1usize..80,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (net, width) = random_stack(&mut rng, cnn, [act0, act1]);
        let classes = classes_of(&net);
        let (x, _) = random_rows(&mut rng, width, n, classes);
        let samples: Vec<Vec<f32>> = x.chunks_exact(width).map(<[f32]>::to_vec).collect();
        // Label half the rows with their prediction so hits are non-trivial.
        let labels: Vec<usize> = samples
            .iter()
            .enumerate()
            .map(|(i, s)| if i % 2 == 0 { net.predict(s) } else { (i / 2) % classes })
            .collect();
        let hits = samples.iter().zip(&labels).filter(|&(s, &l)| net.predict(s) == l).count();
        let expected = hits as f64 / n as f64;
        prop_assert_eq!(net.accuracy(&samples, &labels), expected);
        prop_assert_eq!(
            net.accuracy_par(&samples, &labels, man_par::Parallelism::Threads(3)),
            expected
        );
        let mut training = net.clone();
        let batched = training.forward(&x, n);
        let rows: Vec<f32> = samples.iter().flat_map(|s| net.infer(s)).collect();
        prop_assert_eq!(
            batched.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            rows.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
