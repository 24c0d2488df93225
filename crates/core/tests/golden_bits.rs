//! Golden training bits: two small networks are trained for a few
//! minibatches with momentum and RMS clipping, then retrained under `{1}`
//! with the Algorithm-1 projection after every step. An FNV-1a hash of
//! every parameter's bits (and of every epoch's mean loss) must equal a
//! constant recorded before the batch-major training datapath and the
//! table-driven projection existed, so any change to the order or the
//! rounding of a single floating-point operation fails here.
//!
//! Nothing here calls into libm: the nets use ReLU and `Loss::Mse`, the
//! data is integer arithmetic, and the only transcendental left is the
//! correctly rounded `sqrt` of initialization and clipping — so the
//! constants hold on every IEEE-754 host.

use man::alphabet::AlphabetSet;
use man::fixed::{LayerAlphabets, QuantSpec};
use man::train::ConstraintProjector;
use man_nn::layers::{Activation, ActivationLayer, Conv2d, Dense, Layer, ScaledAvgPool};
use man_nn::loss::Loss;
use man_nn::network::Network;
use man_nn::optim::Sgd;
use man_nn::train::{train, EpochStats, TrainConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Rows in the training set: deliberately not a multiple of the batch.
const ROWS: usize = 37;
const CLASSES: usize = 3;

fn dataset(width: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
    let images = (0..ROWS)
        .map(|i| {
            (0..width)
                .map(|j| ((i * 31 + j * 17 + i * j) % 23) as f32 / 23.0 - 0.25)
                .collect()
        })
        .collect();
    let labels = (0..ROWS).map(|i| (i * 7) % CLASSES).collect();
    (images, labels)
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn network(&mut self, net: &mut Network) {
        net.visit_params_mut(|_, _, values, _| {
            for v in values.iter() {
                self.bytes(&v.to_bits().to_le_bytes());
            }
        });
    }

    fn stats(&mut self, stats: &[EpochStats]) {
        for s in stats {
            self.bytes(&s.mean_loss.to_bits().to_le_bytes());
        }
    }
}

/// Trains `net` two epochs unconstrained, then retrains it one epoch under
/// `{1}` with the projection after every step, hashing the parameters and
/// losses of both phases.
fn train_and_retrain(mut net: Network, width: usize) -> u64 {
    let (images, labels) = dataset(width);
    let mut hash = Fnv::new();
    let mut rng = SmallRng::seed_from_u64(0x601d);
    let config = TrainConfig {
        epochs: 2,
        batch_size: 8,
        loss: Loss::Mse,
        lr_decay: 0.9,
    };
    let mut sgd = Sgd::new(0.2, 0.9).with_clip_rms(0.02);
    let stats = train(
        &mut net,
        &mut sgd,
        &images,
        &labels,
        &config,
        &mut rng,
        |_| {},
    );
    hash.stats(&stats);
    hash.network(&mut net);

    let spec = QuantSpec::fit(&net, 8);
    let alphabets = LayerAlphabets::uniform(AlphabetSet::a1(), spec.layer_formats().len());
    let projector = ConstraintProjector::new(&spec, &alphabets);
    projector.project(&mut net);
    let mut sgd = Sgd::new(0.05, 0.9).with_clip_rms(0.02);
    let config = TrainConfig {
        epochs: 1,
        ..config
    };
    let stats = train(
        &mut net,
        &mut sgd,
        &images,
        &labels,
        &config,
        &mut rng,
        |n| projector.project(n),
    );
    hash.stats(&stats);
    hash.network(&mut net);
    hash.0
}

#[test]
fn dense_relu_dense_mse_bits_are_golden() {
    let mut rng = SmallRng::seed_from_u64(11);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(12, 10, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Relu)),
        Layer::Dense(Dense::new(10, CLASSES, &mut rng)),
    ]);
    assert_eq!(train_and_retrain(net, 12), 11_909_939_105_988_156_571);
}

#[test]
fn conv_pool_relu_dense_bits_are_golden() {
    let mut rng = SmallRng::seed_from_u64(12);
    let net = Network::new(vec![
        Layer::Conv2d(Conv2d::new(1, 2, 3, 8, 8, &mut rng)),
        Layer::ScaledAvgPool(ScaledAvgPool::new(2, 6, 6)),
        Layer::Activation(ActivationLayer::new(Activation::Relu)),
        Layer::Dense(Dense::new(2 * 3 * 3, CLASSES, &mut rng)),
    ]);
    assert_eq!(train_and_retrain(net, 64), 3_502_695_683_182_239_630);
}
