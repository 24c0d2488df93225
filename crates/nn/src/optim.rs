//! Stochastic gradient descent with classical momentum and step decay.

use crate::network::Network;

/// SGD with momentum. Velocities are kept per parameter tensor, matched by
/// visitation order (which is stable for a fixed architecture).
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Current learning rate.
    pub(crate) lr: f32,
    /// Momentum coefficient in `[0, 1)`.
    pub(crate) momentum: f32,
    /// Optional per-tensor RMS gradient clip: before each update, a
    /// tensor's gradient is rescaled so its root-mean-square element does
    /// not exceed this value. Weight-sharing layers (convolutions, the
    /// LeNet pooling coefficients) accumulate gradients over hundreds of
    /// spatial positions; without clipping their few parameters blow
    /// through the sigmoid's active region in the first epoch.
    pub(crate) clip_rms: Option<f32>,
    velocities: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            lr,
            momentum,
            clip_rms: None,
            velocities: Vec::new(),
        }
    }

    /// Enables per-tensor RMS gradient clipping.
    ///
    /// # Panics
    ///
    /// Panics if `clip <= 0`.
    pub fn with_clip_rms(mut self, clip: f32) -> Self {
        assert!(clip > 0.0, "clip must be positive");
        self.clip_rms = Some(clip);
        self
    }

    /// Applies one update using the gradients accumulated in the network,
    /// scaled by `1 / batch_size`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub(crate) fn step(&mut self, net: &mut Network, batch_size: usize) {
        assert!(batch_size > 0, "batch size must be positive");
        let scale = 1.0 / batch_size as f32;
        let (lr, momentum, clip_rms) = (self.lr, self.momentum, self.clip_rms);
        let velocities = &mut self.velocities;
        let mut tensor_idx = 0;
        net.visit_params_mut(|_, _, values, grads| {
            if velocities.len() == tensor_idx {
                velocities.push(vec![0.0; values.len()]);
            }
            let vel = &mut velocities[tensor_idx];
            assert_eq!(vel.len(), values.len(), "network architecture changed");
            let mut gscale = scale;
            if let Some(clip) = clip_rms {
                let rms = (grads.iter().map(|g| (g * scale).powi(2)).sum::<f32>()
                    / grads.len() as f32)
                    .sqrt();
                if rms > clip {
                    gscale *= clip / rms;
                }
            }
            for ((v, g), w) in vel.iter_mut().zip(grads.iter()).zip(values.iter_mut()) {
                *v = momentum * *v - lr * g * gscale;
                *w += *v;
            }
            tensor_idx += 1;
        });
    }

    /// Multiplies the learning rate by `factor` (step decay).
    pub(crate) fn decay_lr(&mut self, factor: f32) {
        self.lr *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Layer};
    use crate::loss::Loss;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn one_layer() -> Network {
        let mut rng = SmallRng::seed_from_u64(9);
        Network::new(vec![Layer::Dense(Dense::new(2, 2, &mut rng))])
    }

    #[test]
    fn step_reduces_loss_on_fixed_sample() {
        let mut net = one_layer();
        let mut sgd = Sgd::new(0.5, 0.0);
        let x = [1.0, -0.5];
        let mut last = f32::INFINITY;
        for _ in 0..20 {
            net.zero_grads();
            let l = net.accumulate_batch(&x, &[0], Loss::SoftmaxCrossEntropy)[0];
            sgd.step(&mut net, 1);
            assert!(l <= last + 1e-4, "loss must not increase: {l} > {last}");
            last = l;
        }
        assert!(last < 0.1, "loss should converge, got {last}");
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let run = |momentum: f32| {
            let mut net = one_layer();
            let mut sgd = Sgd::new(0.05, momentum);
            let x = [1.0, -0.5];
            let mut l = 0.0;
            for _ in 0..30 {
                net.zero_grads();
                l = net.accumulate_batch(&x, &[0], Loss::SoftmaxCrossEntropy)[0];
                sgd.step(&mut net, 1);
            }
            l
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn decay_shrinks_lr() {
        let mut sgd = Sgd::new(1.0, 0.0);
        sgd.decay_lr(0.1);
        assert!((sgd.lr - 0.1).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn bad_momentum_rejected() {
        let _ = Sgd::new(0.1, 1.0);
    }
}
