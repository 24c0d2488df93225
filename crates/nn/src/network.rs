//! The sequential network container.

use serde::{Deserialize, Serialize};

use crate::layers::{Layer, ParamKind};
use crate::loss::Loss;

/// Rows one inference pass of [`Network::accuracy`] carries.
const INFER_ROWS: usize = 32;

/// A feedforward network: an ordered stack of layers.
///
/// Rows travel through the stack batch-major: training takes a minibatch
/// as one row-major buffer ([`Network::accumulate_batch`]), and
/// [`Network::infer`], [`Network::predict`], [`Network::accuracy`] and
/// [`Network::accuracy_par`] share one `&self` batched forward pass. A
/// row's result never depends on the rows batched with it.
///
/// # Example
///
/// ```
/// use man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
/// use man_nn::network::Network;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let net = Network::new(vec![
///     Layer::Dense(Dense::new(4, 8, &mut rng)),
///     Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
///     Layer::Dense(Dense::new(8, 2, &mut rng)),
/// ]);
/// assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Builds a network from layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        Self { layers }
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Total trainable parameter count (the paper's "synapses").
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Number of neurons: the output width of every parameterized layer
    /// (dense outputs, convolution maps, pooling maps), matching how
    /// Table IV counts them.
    pub fn neuron_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::Dense(d) => d.out_dim,
                Layer::Conv2d(c) => c.out_channels * c.out_h() * c.out_w(),
                Layer::ScaledAvgPool(p) => p.channels * p.out_h() * p.out_w(),
                Layer::Activation(_) => 0,
            })
            .sum()
    }

    /// Multiply-accumulate operations one inference costs — the float
    /// twin of the fixed engine's compile-time MAC count, and the work
    /// measure [`Network::accuracy_par`] hands the `man-par` Auto tuner.
    pub(crate) fn macs_per_inference(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::Dense(d) => (d.in_dim * d.out_dim) as u64,
                Layer::Conv2d(c) => {
                    (c.in_channels * c.out_channels * c.kernel * c.kernel * c.out_h() * c.out_w())
                        as u64
                }
                Layer::ScaledAvgPool(p) => (p.channels * p.out_h() * p.out_w()) as u64,
                Layer::Activation(_) => 0,
            })
            .sum()
    }

    /// Inference forward pass over `rows` rows held row-major in `x` —
    /// the one `&self` path behind [`Network::infer`],
    /// [`Network::predict`] and the accuracy measurements.
    fn infer_rows(&self, x: &[f32], rows: usize) -> Vec<f32> {
        self.layers
            .iter()
            .fold(x.to_vec(), |v, layer| layer.infer(&v, rows))
    }

    /// Inference forward pass for one row (no gradient caches touched).
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        self.infer_rows(x, 1)
    }

    /// Training forward pass over a minibatch of `rows` rows held
    /// row-major in `x`; caches activations for `Network::backward`.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not hold `rows` rows of the input width.
    pub fn forward(&mut self, x: &[f32], rows: usize) -> Vec<f32> {
        let mut v = x.to_vec();
        for layer in &mut self.layers {
            v = layer.forward(v, rows);
        }
        v
    }

    /// Backpropagates the loss gradients `[rows][out]` of the last
    /// [`Network::forward`], adding each row's parameter gradients in row
    /// order.
    pub(crate) fn backward(&mut self, grad_out: Vec<f32>, rows: usize) {
        let mut g = grad_out;
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            g = layer.backward(g, rows, i > 0);
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Runs forward + backward for one minibatch — `labels.len()` rows
    /// held row-major in `x` — adding its gradients to the accumulated
    /// ones, and returns the per-row losses.
    ///
    /// Weights do not change within the call and every row keeps its
    /// one-row operation order, so the losses and every gradient bit
    /// equal those of `labels.len()` one-row calls made in row order.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not hold `labels.len()` rows of the input width
    /// or a label is out of range.
    pub fn accumulate_batch(&mut self, x: &[f32], labels: &[usize], loss: Loss) -> Vec<f32> {
        let rows = labels.len();
        if rows == 0 {
            return Vec::new();
        }
        let out = self.forward(x, rows);
        let mut losses = Vec::with_capacity(rows);
        let mut grad = Vec::with_capacity(out.len());
        for (o, &label) in out.chunks_exact(out.len() / rows).zip(labels) {
            let (l, g) = loss.loss_and_grad(o, label);
            losses.push(l);
            grad.extend_from_slice(&g);
        }
        self.backward(grad, rows);
        losses
    }

    /// The predicted class (argmax of the output).
    pub fn predict(&self, x: &[f32]) -> usize {
        argmax(&self.infer(x))
    }

    /// Correct predictions over a slice of rows, run through
    /// [`Network::infer_rows`] [`INFER_ROWS`] rows at a time.
    fn hits(&self, samples: &[Vec<f32>], labels: &[usize]) -> u64 {
        let mut x = Vec::new();
        let mut hits = 0;
        for (rows, labels) in samples.chunks(INFER_ROWS).zip(labels.chunks(INFER_ROWS)) {
            x.clear();
            for row in rows {
                x.extend_from_slice(row);
            }
            let out = self.infer_rows(&x, rows.len());
            let width = out.len() / rows.len();
            hits += out
                .chunks_exact(width)
                .zip(labels)
                .filter(|&(o, &l)| argmax(o) == l)
                .count() as u64;
        }
        hits
    }

    /// Classification accuracy over a dataset given as flat samples.
    ///
    /// # Panics
    ///
    /// Panics if the sample and label counts differ.
    pub fn accuracy(&self, samples: &[Vec<f32>], labels: &[usize]) -> f64 {
        assert_eq!(samples.len(), labels.len(), "sample/label count mismatch");
        if samples.is_empty() {
            return 0.0;
        }
        self.hits(samples, labels) as f64 / samples.len() as f64
    }

    /// [`Network::accuracy`] with the dataset row-sharded across the
    /// workers of the plan [`man_par::Parallelism::plan`] resolves for
    /// it, in blocks of the batched forward pass. Each row's forward
    /// pass is independent of the rows batched with it, so the count —
    /// and therefore the returned accuracy — is identical to the
    /// sequential pass.
    ///
    /// # Panics
    ///
    /// Panics if the sample and label counts differ.
    pub fn accuracy_par(
        &self,
        samples: &[Vec<f32>],
        labels: &[usize],
        parallelism: man_par::Parallelism,
    ) -> f64 {
        assert_eq!(samples.len(), labels.len(), "sample/label count mismatch");
        if samples.is_empty() {
            return 0.0;
        }
        let workers = parallelism
            .plan(self.macs_per_inference(), samples.len())
            .workers();
        if workers <= 1 {
            return self.accuracy(samples, labels);
        }
        let blocks = samples.len().div_ceil(INFER_ROWS);
        let hits = man_par::parallel_map(man_par::Parallelism::Threads(workers), blocks, |b| {
            let rows = b * INFER_ROWS..((b + 1) * INFER_ROWS).min(samples.len());
            self.hits(&samples[rows.clone()], &labels[rows])
        });
        hits.iter().sum::<u64>() as f64 / samples.len() as f64
    }

    /// Visits every parameter tensor as `(layer_index, kind, values,
    /// grads)`, in a stable order.
    pub fn visit_params_mut(
        &mut self,
        mut f: impl FnMut(usize, ParamKind, &mut [f32], &mut [f32]),
    ) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.visit_params_mut(&mut |kind, values, grads| f(i, kind, values, grads));
        }
    }
}

/// Index of the largest element (first on ties).
pub(crate) fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate().skip(1) {
        if x > v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, ActivationLayer, Dense};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        Network::new(vec![
            Layer::Dense(Dense::new(3, 5, &mut rng)),
            Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
            Layer::Dense(Dense::new(5, 2, &mut rng)),
        ])
    }

    #[test]
    fn infer_and_forward_agree() {
        let mut net = tiny_net(7);
        let x = [0.3, -0.2, 0.9];
        let a = net.infer(&x);
        let b = net.forward(&x, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn paper_mlp_synapse_counts() {
        let mut rng = SmallRng::seed_from_u64(0);
        // Digit recognition: 1024-100-10 -> 103,510 synapses, 110 neurons.
        let digits = Network::new(vec![
            Layer::Dense(Dense::new(1024, 100, &mut rng)),
            Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
            Layer::Dense(Dense::new(100, 10, &mut rng)),
        ]);
        assert_eq!(digits.param_count(), 103_510);
        assert_eq!(digits.neuron_count(), 110);
        // Face detection: 1024-100-2 -> 102,702 synapses, 102 neurons.
        let faces = Network::new(vec![
            Layer::Dense(Dense::new(1024, 100, &mut rng)),
            Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
            Layer::Dense(Dense::new(100, 2, &mut rng)),
        ]);
        assert_eq!(faces.param_count(), 102_702);
        assert_eq!(faces.neuron_count(), 102);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut net = tiny_net(42);
        let x = [0.5, -1.0, 0.25];
        let label = 1;
        let loss = Loss::SoftmaxCrossEntropy;
        net.zero_grads();
        let _ = net.accumulate_batch(&x, &[label], loss);
        // Collect analytic gradients.
        let mut analytic = Vec::new();
        net.visit_params_mut(|_, _, _, grads| analytic.extend_from_slice(grads));
        // Finite differences over every parameter.
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
            bump(&mut net, eps);
            let (lp, _) = loss.loss_and_grad(&net.infer(&x), label);
            bump(&mut net, -2.0 * eps);
            let (lm, _) = loss.loss_and_grad(&net.infer(&x), label);
            bump(&mut net, eps);
            let numeric = (lp - lm) / (2.0 * eps);
            max_err = max_err.max((numeric - expected).abs());
        }
        assert!(max_err < 1e-2, "max gradient error {max_err}");
    }

    #[test]
    fn argmax_picks_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn accuracy_counts_correct_predictions() {
        let net = tiny_net(3);
        let samples = vec![vec![0.0, 0.0, 0.0], vec![1.0, 1.0, 1.0]];
        let p0 = net.predict(&samples[0]);
        let p1 = net.predict(&samples[1]);
        let acc = net.accuracy(&samples, &[p0, p1]);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn parallel_accuracy_matches_sequential() {
        // 2,500 rows of a 25-MAC net clear the Auto table's total-work
        // floor, so `Auto` row-shards on any multi-core host.
        let net = tiny_net(5);
        let samples: Vec<Vec<f32>> = (0..2_500)
            .map(|i| {
                (0..3)
                    .map(|j| ((i * 7 + j * 5) % 17) as f32 / 8.0 - 1.0)
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..samples.len()).map(|i| i % 2).collect();
        let seq = net.accuracy(&samples, &labels);
        assert!(seq > 0.0 && seq < 1.0, "a degenerate set proves nothing");
        for p in [
            man_par::Parallelism::Sequential,
            man_par::Parallelism::Threads(3),
            man_par::Parallelism::Auto,
        ] {
            assert_eq!(net.accuracy_par(&samples, &labels, p), seq, "{p:?}");
        }
    }
}
