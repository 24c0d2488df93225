//! Algorithm 2: the NN training and testing methodology.
//!
//! 1. Train unconstrained to (near) saturation.
//! 2. Quantize and measure the conventional fixed-point accuracy `J`;
//!    create a restore point.
//! 3. Retrain from the restore point with the Algorithm-1 projection
//!    applied after every weight update, at a lower learning rate,
//!    starting from the smallest alphabet set.
//! 4. Accept the first set whose retrained fixed-point accuracy `K`
//!    satisfies `K ≥ J·Q`; otherwise grow the alphabet set and repeat.
//!
//! This module holds the steps' building blocks: the hyper-parameters
//! ([`MethodologyConfig`]), unconstrained training
//! ([`train_unconstrained`]), the Algorithm-1 projector
//! ([`ConstraintProjector`]) and constrained retraining
//! ([`constrained_retrain`]). The one orchestration of all four steps is
//! the facade crate's `Pipeline` (`man-repro`): `train_baseline()` runs
//! steps 1-2 and `train()` adds steps 3-4, keeping the best-`K` attempt
//! when no set meets the bar.

use man_nn::layers::ParamKind;
use man_nn::network::Network;
use man_nn::optim::Sgd;
use man_nn::train::{train, TrainConfig};
use man_par::Parallelism;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::alphabet::AlphabetSet;
use crate::constrain::{ProjectionTable, WeightLattice};
use crate::fixed::{LayerAlphabets, QuantSpec};

/// Hyper-parameters of the methodology.
#[derive(Clone, Debug)]
pub struct MethodologyConfig {
    /// Epochs for the initial unconstrained training.
    pub initial_epochs: usize,
    /// Epochs for each constrained retraining attempt.
    pub retrain_epochs: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Retraining learning-rate factor (the paper retrains "with lower
    /// learning rate").
    pub retrain_lr_factor: f32,
    /// Momentum for both phases.
    pub momentum: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Per-tensor RMS gradient clip (needed by weight-sharing layers —
    /// see `man_nn::optim::Sgd::clip_rms`).
    pub clip_rms: Option<f32>,
    /// Quality constraint `Q ≤ 1`: accept when `K ≥ J·Q`.
    pub quality: f64,
    /// Candidate alphabet sets, smallest first (Algorithm 2 "start with
    /// 1").
    pub candidates: Vec<AlphabetSet>,
    /// RNG seed (shuffling and initialization).
    pub seed: u64,
    /// Worker threads for the accuracy evaluations the methodology runs
    /// after every phase (float, `J`, each `K`). Evaluation shards test
    /// rows across workers; the measured accuracies are identical to a
    /// sequential pass for every setting. SGD itself stays sequential —
    /// the update chain is order-dependent by definition.
    pub parallelism: Parallelism,
}

impl MethodologyConfig {
    /// Paper-shaped defaults. The word length is not a methodology
    /// setting: `Pipeline::with_bits` chooses it.
    pub fn paper() -> Self {
        Self {
            initial_epochs: 14,
            retrain_epochs: 6,
            lr: 0.15,
            retrain_lr_factor: 0.25,
            momentum: 0.9,
            batch_size: 16,
            clip_rms: None,
            quality: 0.99,
            candidates: vec![AlphabetSet::a1(), AlphabetSet::a2(), AlphabetSet::a4()],
            seed: 0x5EED,
            parallelism: Parallelism::Sequential,
        }
    }
}

/// The projector that imposes Algorithm 1 on every weight update: one
/// `ProjectionTable` per parameterized layer, so projecting a weight is
/// a quantization and a lookup.
#[derive(Clone, Debug)]
pub struct ConstraintProjector {
    tables: Vec<ProjectionTable>,
}

impl ConstraintProjector {
    /// Builds per-layer projection tables for a quantization spec and
    /// alphabet assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not cover every parameterized layer.
    pub fn new(spec: &QuantSpec, alphabets: &LayerAlphabets) -> Self {
        assert_eq!(
            spec.layer_formats().len(),
            alphabets.len(),
            "alphabet assignment must cover every parameterized layer"
        );
        let tables = spec
            .layer_formats()
            .iter()
            .zip(alphabets.sets())
            .map(|(&format, set)| {
                ProjectionTable::new(format, &WeightLattice::new(spec.bits(), set))
            })
            .collect();
        Self { tables }
    }

    /// Projects every weight tensor of `net` onto its constrained lattice.
    pub fn project(&self, net: &mut Network) {
        let mut tables = self.tables.iter();
        net.visit_params_mut(|_, kind, values, _| {
            if kind == ParamKind::Weights {
                tables
                    .next()
                    .expect("one table per parameterized layer")
                    .apply(values);
            }
        });
    }
}

/// One constrained-retraining attempt.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Attempt {
    /// Alphabet-set label (e.g. `"2 {1,3}"`).
    pub label: String,
    /// Fixed-point accuracy `K` after retraining.
    pub accuracy: f64,
    /// Accuracy loss vs. the conventional baseline, in percentage points
    /// (the paper's "Accuracy Loss (%)").
    pub loss_pp: f64,
    /// Whether `K ≥ J·Q` held.
    pub accepted: bool,
}

/// Trains `net` unconstrained (Algorithm 2 step 1).
pub fn train_unconstrained(
    net: &mut Network,
    images: &[Vec<f32>],
    labels: &[usize],
    cfg: &MethodologyConfig,
) {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut sgd = Sgd::new(cfg.lr, cfg.momentum);
    if let Some(clip) = cfg.clip_rms {
        sgd = sgd.with_clip_rms(clip);
    }
    let tc = TrainConfig {
        epochs: cfg.initial_epochs,
        batch_size: cfg.batch_size,
        ..TrainConfig::default()
    };
    train(net, &mut sgd, images, labels, &tc, &mut rng, |_| {});
}

/// Retrains a copy of `restore` under a constraint projection (Algorithm 2
/// step 3) and returns the constrained network.
pub fn constrained_retrain(
    restore: &Network,
    spec: &QuantSpec,
    alphabets: &LayerAlphabets,
    images: &[Vec<f32>],
    labels: &[usize],
    cfg: &MethodologyConfig,
) -> Network {
    let projector = ConstraintProjector::new(spec, alphabets);
    let mut net = restore.clone();
    // Impose the constraint immediately, then let retraining recover.
    projector.project(&mut net);
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(alphabets.len() as u64));
    let mut sgd = Sgd::new(cfg.lr * cfg.retrain_lr_factor, cfg.momentum);
    if let Some(clip) = cfg.clip_rms {
        sgd = sgd.with_clip_rms(clip);
    }
    let tc = TrainConfig {
        epochs: cfg.retrain_epochs,
        batch_size: cfg.batch_size,
        ..TrainConfig::default()
    };
    train(&mut net, &mut sgd, images, labels, &tc, &mut rng, |n| {
        projector.project(n)
    });
    // The last optimizer step is already projected, but be explicit: the
    // compiled network must sit exactly on the lattice.
    projector.project(&mut net);
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedNet;
    use man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
    use rand::Rng;

    fn toy_problem(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let x: Vec<f32> = (0..8).map(|_| rng.gen_range(0.0..1.0)).collect();
            let s: f32 = x[..4].iter().sum::<f32>() - x[4..].iter().sum::<f32>();
            xs.push(x);
            ys.push((s > 0.0) as usize);
        }
        (xs, ys)
    }

    fn toy_net(seed: u64) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        Network::new(vec![
            Layer::Dense(Dense::new(8, 12, &mut rng)),
            Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
            Layer::Dense(Dense::new(12, 2, &mut rng)),
        ])
    }

    fn quick_cfg() -> MethodologyConfig {
        MethodologyConfig {
            initial_epochs: 20,
            retrain_epochs: 8,
            ..MethodologyConfig::paper()
        }
    }

    #[test]
    fn projector_keeps_weights_on_lattice() {
        let net = toy_net(1);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a1(), 2);
        let projector = ConstraintProjector::new(&spec, &alphabets);
        let mut constrained = net.clone();
        projector.project(&mut constrained);
        // Compiling under {1} must now succeed.
        assert!(FixedNet::compile(&constrained, &spec, &alphabets).is_ok());
        // Projection is idempotent.
        let mut twice = constrained.clone();
        projector.project(&mut twice);
        let collect = |n: &mut Network| {
            let mut v = Vec::new();
            n.visit_params_mut(|_, _, values, _| v.extend_from_slice(values));
            v
        };
        assert_eq!(collect(&mut constrained), collect(&mut twice));
    }

    #[test]
    fn retraining_recovers_projection_loss() {
        let (xs, ys) = toy_problem(300, 7);
        let mut net = toy_net(3);
        let cfg = quick_cfg();
        train_unconstrained(&mut net, &xs, &ys, &cfg);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a1(), 2);
        // Projection only (no retraining).
        let projector = ConstraintProjector::new(&spec, &alphabets);
        let mut projected = net.clone();
        projector.project(&mut projected);
        let acc_projected = FixedNet::compile(&projected, &spec, &alphabets)
            .unwrap()
            .accuracy(&xs, &ys);
        // Projection + retraining.
        let retrained = constrained_retrain(&net, &spec, &alphabets, &xs, &ys, &cfg);
        let acc_retrained = FixedNet::compile(&retrained, &spec, &alphabets)
            .unwrap()
            .accuracy(&xs, &ys);
        assert!(
            acc_retrained >= acc_projected - 0.02,
            "retraining must not be (meaningfully) worse: {acc_retrained} vs {acc_projected}"
        );
    }
}
