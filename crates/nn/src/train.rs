//! Mini-batch training loop with an optional per-step weight projection —
//! the hook through which the `man` crate imposes the paper's Algorithm 1
//! constraint during retraining ("restrictions in the weight update were
//! imposed during retraining of the NNs").

use rand::seq::SliceRandom;
use rand::Rng;

use crate::loss::Loss;
use crate::network::Network;
use crate::optim::Sgd;

/// Training hyper-parameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Samples per optimizer step.
    pub batch_size: usize,
    /// Loss function.
    pub loss: Loss,
    /// Per-epoch learning-rate decay factor (1.0 = none).
    pub lr_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 16,
            loss: Loss::SoftmaxCrossEntropy,
            lr_decay: 0.95,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochStats {
    /// Mean per-sample loss over the epoch.
    pub mean_loss: f64,
}

/// Trains `net` on `(samples, labels)`, shuffling each epoch with `rng`,
/// calling `project` after every optimizer step (pass a no-op closure for
/// unconstrained training).
///
/// Each minibatch is gathered into one row-major buffer and runs as one
/// [`Network::accumulate_batch`] call; its per-row losses are summed in
/// row order.
///
/// Returns one [`EpochStats`] per epoch.
///
/// # Panics
///
/// Panics if the sample and label counts differ, the dataset is empty or
/// `config.batch_size` is zero.
pub fn train(
    net: &mut Network,
    sgd: &mut Sgd,
    samples: &[Vec<f32>],
    labels: &[usize],
    config: &TrainConfig,
    rng: &mut impl Rng,
    mut project: impl FnMut(&mut Network),
) -> Vec<EpochStats> {
    assert_eq!(samples.len(), labels.len(), "sample/label count mismatch");
    assert!(!samples.is_empty(), "empty training set");
    assert!(config.batch_size > 0, "batch size must be positive");
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut stats = Vec::with_capacity(config.epochs);
    let mut rows = Vec::new();
    let mut batch_labels = Vec::with_capacity(config.batch_size);
    for _ in 0..config.epochs {
        order.shuffle(rng);
        let mut total = 0.0f64;
        for batch in order.chunks(config.batch_size) {
            rows.clear();
            batch_labels.clear();
            for &i in batch {
                rows.extend_from_slice(&samples[i]);
                batch_labels.push(labels[i]);
            }
            net.zero_grads();
            for loss in net.accumulate_batch(&rows, &batch_labels, config.loss) {
                total += loss as f64;
            }
            sgd.step(net, batch.len());
            project(net);
        }
        sgd.decay_lr(config.lr_decay);
        stats.push(EpochStats {
            mean_loss: total / samples.len() as f64,
        });
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, ActivationLayer, Dense, Layer};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A linearly separable two-class problem.
    fn toy_data(rng: &mut SmallRng, n: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            xs.push(vec![a, b]);
            ys.push((a + b > 0.0) as usize);
        }
        (xs, ys)
    }

    #[test]
    fn learns_linearly_separable_data() {
        let mut rng = SmallRng::seed_from_u64(11);
        let (xs, ys) = toy_data(&mut rng, 200);
        let mut net = Network::new(vec![
            Layer::Dense(Dense::new(2, 8, &mut rng)),
            Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
            Layer::Dense(Dense::new(8, 2, &mut rng)),
        ]);
        let mut sgd = Sgd::new(0.5, 0.9);
        let config = TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        };
        let stats = train(&mut net, &mut sgd, &xs, &ys, &config, &mut rng, |_| {});
        assert!(stats.last().unwrap().mean_loss < stats[0].mean_loss);
        assert!(
            net.accuracy(&xs, &ys) > 0.95,
            "acc={}",
            net.accuracy(&xs, &ys)
        );
    }

    #[test]
    fn projection_hook_is_applied() {
        let mut rng = SmallRng::seed_from_u64(13);
        let (xs, ys) = toy_data(&mut rng, 50);
        let mut net = Network::new(vec![Layer::Dense(Dense::new(2, 2, &mut rng))]);
        let mut sgd = Sgd::new(0.1, 0.0);
        let config = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        // Project every weight onto a coarse grid after each step.
        train(&mut net, &mut sgd, &xs, &ys, &config, &mut rng, |net| {
            net.visit_params_mut(|_, kind, values, _| {
                if kind == crate::layers::ParamKind::Weights {
                    for v in values.iter_mut() {
                        *v = (*v * 4.0).round() / 4.0;
                    }
                }
            });
        });
        let mut on_grid = true;
        net.visit_params_mut(|_, kind, values, _| {
            if kind == crate::layers::ParamKind::Weights {
                on_grid &= values.iter().all(|v| (v * 4.0).fract().abs() < 1e-6);
            }
        });
        assert!(on_grid, "weights must stay on the projected lattice");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut rng = SmallRng::seed_from_u64(21);
            let (xs, ys) = toy_data(&mut rng, 40);
            let mut net = Network::new(vec![Layer::Dense(Dense::new(2, 2, &mut rng))]);
            let mut sgd = Sgd::new(0.2, 0.5);
            let config = TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            };
            let s = train(&mut net, &mut sgd, &xs, &ys, &config, &mut rng, |_| {});
            s.last().unwrap().mean_loss
        };
        assert_eq!(run(), run());
    }
}
