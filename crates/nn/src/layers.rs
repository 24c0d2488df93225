//! Network layers: dense, 2-D convolution, LeNet-style trainable scaled
//! average pooling, element-wise activations and flatten.
//!
//! Layers are an enum (not trait objects) so the fixed-point inference
//! engine in the `man` crate can pattern-match on the architecture and
//! replay it bit-accurately on the ASM datapath.
//!
//! Every pass is batch-major: a layer takes `rows` rows as one row-major
//! `[rows][in]` buffer and returns `[rows][out]`. [`Dense`] computes
//! 16 rows side by side; convolution, pooling and activations run
//! their per-row arithmetic inside a row loop. Either way each row's
//! floating-point operations, and their order, are the ones a one-row
//! pass performs, so every output and gradient bit is independent of how
//! rows are grouped into batches.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Rows a [`Dense`] layer computes side by side: one `f32` accumulator
/// lane per row, wide enough for the compiler to vectorize across rows.
const LANES: usize = 16;

/// Values of a [`Dense`] gradient row (weight or input) held in registers
/// while their terms are added.
const GRAD_BLOCK: usize = 32;

/// Which parameter tensor of a layer is being visited.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParamKind {
    /// Multiplicative weights (the tensors the ASM constraint applies to).
    Weights,
    /// Additive biases (never constrained — they feed the accumulator
    /// directly without a multiplier).
    Bias,
}

/// Element-wise activation functions.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Logistic sigmoid (the paper's soft-limiting neuron).
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    /// Applies the function.
    pub(crate) fn eval(&self, x: f32) -> f32 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
        }
    }

    /// Derivative expressed through the *output* value `y = eval(x)`.
    pub(crate) fn derivative_from_output(&self, y: f32) -> f32 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Fully connected layer: `y = W·x + b`, weights stored row-major
/// `[out][in]`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dense {
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
    pub(crate) weights: Vec<f32>,
    pub(crate) bias: Vec<f32>,
    pub(crate) grad_w: Vec<f32>,
    pub(crate) grad_b: Vec<f32>,
    pub(crate) cached_input: Vec<f32>,
}

impl Dense {
    /// A dense layer with Xavier-uniform initialized weights.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "degenerate dense layer");
        let bound = (6.0f32 / (in_dim + out_dim) as f32).sqrt();
        let weights = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self {
            in_dim,
            out_dim,
            weights,
            bias: vec![0.0; out_dim],
            grad_w: vec![0.0; in_dim * out_dim],
            grad_b: vec![0.0; out_dim],
            cached_input: Vec::new(),
        }
    }

    /// The weight matrix, row-major `[out][in]`.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// `y = W·x + b` for each of `rows` rows. Rows are transposed into
    /// blocks of [`LANES`] (tail lanes zero-padded, their outputs
    /// discarded), and outputs go two to a pass over a block, so that
    /// each transposed input feeds two independent sums; inside a lane, a
    /// row's products are summed from `0.0` in input order and the bias
    /// is added last.
    fn infer(&self, x: &[f32], rows: usize) -> Vec<f32> {
        let (ni, no) = (self.in_dim, self.out_dim);
        assert_eq!(x.len(), rows * ni, "dense input is not rows x {ni}");
        let mut y = vec![0.0f32; rows * no];
        let mut xt = vec![[0.0f32; LANES]; ni];
        for (xs, ys) in x.chunks(LANES * ni).zip(y.chunks_mut(LANES * no)) {
            let lanes = xs.len() / ni;
            for (l, row) in xs.chunks_exact(ni).enumerate() {
                for (col, &v) in xt.iter_mut().zip(row) {
                    col[l] = v;
                }
            }
            if lanes < LANES {
                for col in &mut xt {
                    col[lanes..].fill(0.0);
                }
            }
            let mut store = |o: usize, acc: &[f32; LANES]| {
                for (yl, &a) in ys.chunks_exact_mut(no).zip(acc) {
                    yl[o] = self.bias[o] + a;
                }
            };
            let pairs = self.weights.chunks_exact(2 * ni);
            let odd = pairs.remainder();
            for (p, w) in pairs.enumerate() {
                let (w0, w1) = w.split_at(ni);
                let (mut a0, mut a1) = ([0.0f32; LANES], [0.0f32; LANES]);
                for ((&u, &v), col) in w0.iter().zip(w1).zip(&xt) {
                    // Rebuilding the lane arrays vectorizes; a zipped
                    // in-place update does not.
                    a0 = std::array::from_fn(|l| a0[l] + u * col[l]);
                    a1 = std::array::from_fn(|l| a1[l] + v * col[l]);
                }
                store(2 * p, &a0);
                store(2 * p + 1, &a1);
            }
            if !odd.is_empty() {
                let mut acc = [0.0f32; LANES];
                for (&u, col) in odd.iter().zip(&xt) {
                    acc = std::array::from_fn(|l| acc[l] + u * col[l]);
                }
                store(no - 1, &acc);
            }
        }
        y
    }

    /// Folds the rows' gradients into `grad_w`/`grad_b` in row order and,
    /// with `input_grad`, returns each row's input gradient summed over
    /// outputs in ascending order.
    ///
    /// Both go [`GRAD_BLOCK`] values at a time, each block held in
    /// registers while its terms are added: a block of `grad_w` takes
    /// every row's product in row order, a block of a row's input
    /// gradient every output's in output order.
    fn backward(&mut self, g: &[f32], rows: usize, input_grad: bool) -> Vec<f32> {
        let (ni, no) = (self.in_dim, self.out_dim);
        debug_assert_eq!(g.len(), rows * no);
        let x = std::mem::take(&mut self.cached_input);
        debug_assert_eq!(x.len(), rows * ni);
        for gr in g.chunks_exact(no) {
            for (b, &go) in self.grad_b.iter_mut().zip(gr) {
                *b += go;
            }
        }
        let body = ni / GRAD_BLOCK * GRAD_BLOCK;
        // Block-major, so the rows' inputs of a block stay in L1 for
        // every output.
        for b in (0..body).step_by(GRAD_BLOCK) {
            for (o, grow) in self.grad_w.chunks_exact_mut(ni).enumerate() {
                let block = &mut grow[b..b + GRAD_BLOCK];
                let mut acc: [f32; GRAD_BLOCK] = (&*block).try_into().expect("a whole block");
                for (gr, xr) in g.chunks_exact(no).zip(x.chunks_exact(ni)) {
                    let go = gr[o];
                    let xb = &xr[b..b + GRAD_BLOCK];
                    acc = std::array::from_fn(|j| acc[j] + go * xb[j]);
                }
                block.copy_from_slice(&acc);
            }
        }
        for (o, grow) in self.grad_w.chunks_exact_mut(ni).enumerate() {
            for (gr, xr) in g.chunks_exact(no).zip(x.chunks_exact(ni)) {
                let go = gr[o];
                for (gw, &xi) in grow[body..].iter_mut().zip(&xr[body..]) {
                    *gw += go * xi;
                }
            }
        }
        if !input_grad {
            return Vec::new();
        }
        let mut gx = vec![0.0f32; rows * ni];
        for (gxr, gr) in gx.chunks_exact_mut(ni).zip(g.chunks_exact(no)) {
            let (blocks, tail) = gxr.split_at_mut(body);
            for (b, block) in blocks.chunks_exact_mut(GRAD_BLOCK).enumerate() {
                let mut acc = [0.0f32; GRAD_BLOCK];
                for (&go, w) in gr.iter().zip(self.weights.chunks_exact(ni)) {
                    let wb = &w[b * GRAD_BLOCK..][..GRAD_BLOCK];
                    acc = std::array::from_fn(|j| acc[j] + go * wb[j]);
                }
                block.copy_from_slice(&acc);
            }
            for (&go, w) in gr.iter().zip(self.weights.chunks_exact(ni)) {
                for (gi, &wi) in tail.iter_mut().zip(&w[body..]) {
                    *gi += go * wi;
                }
            }
        }
        gx
    }
}

/// 2-D convolution (stride 1, valid padding), channels-first
/// `[C, H, W]`; kernels `[OC, IC, K, K]`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Conv2d {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Input height/width.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    pub(crate) weights: Vec<f32>,
    pub(crate) bias: Vec<f32>,
    pub(crate) grad_w: Vec<f32>,
    pub(crate) grad_b: Vec<f32>,
    pub(crate) cached_input: Vec<f32>,
}

impl Conv2d {
    /// A convolution layer with He-uniform initialized kernels.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        in_h: usize,
        in_w: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(kernel <= in_h && kernel <= in_w, "kernel larger than input");
        let fan_in = (in_channels * kernel * kernel) as f32;
        let bound = (3.0f32 / fan_in).sqrt();
        let n = out_channels * in_channels * kernel * kernel;
        Self {
            in_channels,
            out_channels,
            kernel,
            in_h,
            in_w,
            weights: (0..n).map(|_| rng.gen_range(-bound..bound)).collect(),
            bias: vec![0.0; out_channels],
            grad_w: vec![0.0; n],
            grad_b: vec![0.0; out_channels],
            cached_input: Vec::new(),
        }
    }

    /// Output height.
    pub(crate) fn out_h(&self) -> usize {
        self.in_h - self.kernel + 1
    }

    /// Output width.
    pub(crate) fn out_w(&self) -> usize {
        self.in_w - self.kernel + 1
    }

    /// The kernel tensor, `[OC, IC, K, K]` row-major.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Per-output-channel biases.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    fn input_len(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    fn output_len(&self) -> usize {
        self.out_channels * self.out_h() * self.out_w()
    }

    fn infer(&self, x: &[f32], rows: usize) -> Vec<f32> {
        let (ni, no) = (self.input_len(), self.output_len());
        assert_eq!(x.len(), rows * ni, "conv input is not rows x {ni}");
        let mut y = vec![0.0f32; rows * no];
        for (xr, yr) in x.chunks_exact(ni).zip(y.chunks_exact_mut(no)) {
            self.infer_row(xr, yr);
        }
        y
    }

    fn infer_row(&self, x: &[f32], y: &mut [f32]) {
        let (ic, k, ih, iw) = (self.in_channels, self.kernel, self.in_h, self.in_w);
        let (oh, ow) = (self.out_h(), self.out_w());
        for oc in 0..self.out_channels {
            let kbase = oc * ic * k * k;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = self.bias[oc];
                    for c in 0..ic {
                        let kc = kbase + c * k * k;
                        let xc = c * ih * iw;
                        for ky in 0..k {
                            let xrow = xc + (oy + ky) * iw + ox;
                            let krow = kc + ky * k;
                            for kx in 0..k {
                                acc += self.weights[krow + kx] * x[xrow + kx];
                            }
                        }
                    }
                    y[oc * oh * ow + oy * ow + ox] = acc;
                }
            }
        }
    }

    fn backward(&mut self, g: &[f32], rows: usize, input_grad: bool) -> Vec<f32> {
        let (ni, no) = (self.input_len(), self.output_len());
        let x = std::mem::take(&mut self.cached_input);
        debug_assert_eq!((x.len(), g.len()), (rows * ni, rows * no));
        let mut gx = vec![0.0f32; if input_grad { rows * ni } else { 0 }];
        for (r, (xr, gr)) in x.chunks_exact(ni).zip(g.chunks_exact(no)).enumerate() {
            let gxr = gx.get_mut(r * ni..(r + 1) * ni);
            self.backward_row(xr, gr, gxr);
        }
        gx
    }

    fn backward_row(&mut self, x: &[f32], g: &[f32], mut gx: Option<&mut [f32]>) {
        let (ic, k, ih, iw) = (self.in_channels, self.kernel, self.in_h, self.in_w);
        let (oh, ow) = (self.out_h(), self.out_w());
        for oc in 0..self.out_channels {
            let kbase = oc * ic * k * k;
            for oy in 0..oh {
                for ox in 0..ow {
                    let go = g[oc * oh * ow + oy * ow + ox];
                    if go == 0.0 {
                        continue;
                    }
                    self.grad_b[oc] += go;
                    for c in 0..ic {
                        let kc = kbase + c * k * k;
                        let xc = c * ih * iw;
                        for ky in 0..k {
                            let xrow = xc + (oy + ky) * iw + ox;
                            let krow = kc + ky * k;
                            for kx in 0..k {
                                self.grad_w[krow + kx] += go * x[xrow + kx];
                                if let Some(gx) = gx.as_deref_mut() {
                                    gx[xrow + kx] += go * self.weights[krow + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// LeNet-style trainable subsampling: a 2×2 average pool scaled by one
/// trainable coefficient and bias per channel — exactly the S2/S4 layers
/// whose 12 + 32 parameters make the paper's CNN total 51,946 synapses.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScaledAvgPool {
    /// Channels.
    pub channels: usize,
    /// Input height (must be even).
    pub in_h: usize,
    /// Input width (must be even).
    pub in_w: usize,
    pub(crate) weights: Vec<f32>,
    pub(crate) bias: Vec<f32>,
    pub(crate) grad_w: Vec<f32>,
    pub(crate) grad_b: Vec<f32>,
    pub(crate) cached_avg: Vec<f32>,
}

impl ScaledAvgPool {
    /// A trainable 2×2 average pool (coefficients start at 1, biases at 0).
    ///
    /// # Panics
    ///
    /// Panics if the spatial dimensions are not even.
    pub fn new(channels: usize, in_h: usize, in_w: usize) -> Self {
        assert!(
            in_h.is_multiple_of(2) && in_w.is_multiple_of(2),
            "pool needs even dimensions"
        );
        Self {
            channels,
            in_h,
            in_w,
            weights: vec![1.0; channels],
            bias: vec![0.0; channels],
            grad_w: vec![0.0; channels],
            grad_b: vec![0.0; channels],
            cached_avg: Vec::new(),
        }
    }

    /// Per-channel scale coefficients.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Per-channel biases.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Output height.
    pub(crate) fn out_h(&self) -> usize {
        self.in_h / 2
    }

    /// Output width.
    pub(crate) fn out_w(&self) -> usize {
        self.in_w / 2
    }

    fn input_len(&self) -> usize {
        self.channels * self.in_h * self.in_w
    }

    /// The 2×2 averages of every row, `[rows][C, H/2, W/2]`.
    fn average(&self, x: &[f32], rows: usize) -> Vec<f32> {
        let (c, ih, iw) = (self.channels, self.in_h, self.in_w);
        assert_eq!(
            x.len(),
            rows * self.input_len(),
            "pool input is not rows x C x H x W"
        );
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut avg = vec![0.0f32; rows * c * oh * ow];
        for (xr, ar) in x
            .chunks_exact(c * ih * iw)
            .zip(avg.chunks_exact_mut(c * oh * ow))
        {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let base = ch * ih * iw + 2 * oy * iw + 2 * ox;
                        ar[ch * oh * ow + oy * ow + ox] =
                            0.25 * (xr[base] + xr[base + 1] + xr[base + iw] + xr[base + iw + 1]);
                    }
                }
            }
        }
        avg
    }

    /// Applies the per-channel coefficient and bias to averages.
    fn scale(&self, avg: &[f32]) -> Vec<f32> {
        let plane = self.out_h() * self.out_w();
        avg.iter()
            .enumerate()
            .map(|(i, &a)| {
                let ch = (i / plane) % self.channels;
                self.weights[ch] * a + self.bias[ch]
            })
            .collect()
    }

    fn backward(&mut self, g: &[f32], rows: usize, input_grad: bool) -> Vec<f32> {
        let (c, ih, iw) = (self.channels, self.in_h, self.in_w);
        let (oh, ow) = (self.out_h(), self.out_w());
        let avg = std::mem::take(&mut self.cached_avg);
        debug_assert_eq!(
            (avg.len(), g.len()),
            (rows * c * oh * ow, rows * c * oh * ow)
        );
        let mut gx = vec![0.0f32; if input_grad { rows * c * ih * iw } else { 0 }];
        for (r, (ar, gr)) in avg
            .chunks_exact(c * oh * ow)
            .zip(g.chunks_exact(c * oh * ow))
            .enumerate()
        {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let idx = ch * oh * ow + oy * ow + ox;
                        let go = gr[idx];
                        self.grad_w[ch] += go * ar[idx];
                        self.grad_b[ch] += go;
                        if input_grad {
                            let spread = go * self.weights[ch] * 0.25;
                            let base = r * c * ih * iw + ch * ih * iw + 2 * oy * iw + 2 * ox;
                            gx[base] += spread;
                            gx[base + 1] += spread;
                            gx[base + iw] += spread;
                            gx[base + iw + 1] += spread;
                        }
                    }
                }
            }
        }
        gx
    }
}

/// Element-wise activation layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ActivationLayer {
    /// The function applied.
    pub activation: Activation,
    pub(crate) cached_output: Vec<f32>,
}

impl ActivationLayer {
    /// Wraps an [`Activation`] as a layer.
    pub fn new(activation: Activation) -> Self {
        Self {
            activation,
            cached_output: Vec::new(),
        }
    }
}

/// One network layer.
///
/// Every pass takes `rows` rows as one row-major buffer:
/// `Layer::infer` is the immutable inference pass, `Layer::forward`
/// the training pass that also caches what `Layer::backward` consumes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Layer {
    /// Fully connected.
    Dense(Dense),
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// LeNet-style trainable scaled average pooling.
    ScaledAvgPool(ScaledAvgPool),
    /// Element-wise activation.
    Activation(ActivationLayer),
}

impl Layer {
    /// Inference forward pass over `rows` rows held row-major in `x`:
    /// immutable, no caches touched.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not hold `rows` rows of the layer's input width.
    pub(crate) fn infer(&self, x: &[f32], rows: usize) -> Vec<f32> {
        match self {
            Layer::Dense(l) => l.infer(x, rows),
            Layer::Conv2d(l) => l.infer(x, rows),
            Layer::ScaledAvgPool(l) => l.scale(&l.average(x, rows)),
            Layer::Activation(l) => x.iter().map(|&v| l.activation.eval(v)).collect(),
        }
    }

    /// Training forward pass over a minibatch of `rows` rows: the
    /// arithmetic of [`Layer::infer`], plus caching what
    /// [`Layer::backward`] needs.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not hold `rows` rows of the layer's input width.
    pub(crate) fn forward(&mut self, x: Vec<f32>, rows: usize) -> Vec<f32> {
        match self {
            Layer::Dense(l) => {
                let y = l.infer(&x, rows);
                l.cached_input = x;
                y
            }
            Layer::Conv2d(l) => {
                let y = l.infer(&x, rows);
                l.cached_input = x;
                y
            }
            Layer::ScaledAvgPool(l) => {
                l.cached_avg = l.average(&x, rows);
                l.scale(&l.cached_avg)
            }
            Layer::Activation(l) => {
                let y: Vec<f32> = x.iter().map(|&v| l.activation.eval(v)).collect();
                l.cached_output = y.clone();
                y
            }
        }
    }

    /// Backward pass over the minibatch of the last [`Layer::forward`]:
    /// consumes the upstream gradient `[rows][out]` and that pass's
    /// caches, adds each row's parameter gradients in row order, and
    /// returns the gradient w.r.t. the layer input — or an empty vector
    /// when `input_grad` is false (the first layer's input gradient is
    /// never used).
    pub(crate) fn backward(&mut self, g: Vec<f32>, rows: usize, input_grad: bool) -> Vec<f32> {
        match self {
            Layer::Dense(l) => l.backward(&g, rows, input_grad),
            Layer::Conv2d(l) => l.backward(&g, rows, input_grad),
            Layer::ScaledAvgPool(l) => l.backward(&g, rows, input_grad),
            Layer::Activation(l) => {
                let y = std::mem::take(&mut l.cached_output);
                if !input_grad {
                    return Vec::new();
                }
                g.iter()
                    .zip(&y)
                    .map(|(go, &y)| go * l.activation.derivative_from_output(y))
                    .collect()
            }
        }
    }

    /// Clears accumulated gradients.
    pub(crate) fn zero_grads(&mut self) {
        let (gw, gb) = match self {
            Layer::Dense(l) => (&mut l.grad_w, &mut l.grad_b),
            Layer::Conv2d(l) => (&mut l.grad_w, &mut l.grad_b),
            Layer::ScaledAvgPool(l) => (&mut l.grad_w, &mut l.grad_b),
            Layer::Activation(_) => return,
        };
        gw.fill(0.0);
        gb.fill(0.0);
    }

    /// Number of trainable parameters (the paper's "synapses", biases
    /// included as in Table IV).
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Dense(l) => l.weights.len() + l.bias.len(),
            Layer::Conv2d(l) => l.weights.len() + l.bias.len(),
            Layer::ScaledAvgPool(l) => l.weights.len() + l.bias.len(),
            Layer::Activation(_) => 0,
        }
    }

    /// Visits `(kind, values, grads)` for every parameter tensor.
    pub(crate) fn visit_params_mut(
        &mut self,
        f: &mut impl FnMut(ParamKind, &mut [f32], &mut [f32]),
    ) {
        match self {
            Layer::Dense(l) => {
                f(ParamKind::Weights, &mut l.weights, &mut l.grad_w);
                f(ParamKind::Bias, &mut l.bias, &mut l.grad_b);
            }
            Layer::Conv2d(l) => {
                f(ParamKind::Weights, &mut l.weights, &mut l.grad_w);
                f(ParamKind::Bias, &mut l.bias, &mut l.grad_b);
            }
            Layer::ScaledAvgPool(l) => {
                f(ParamKind::Weights, &mut l.weights, &mut l.grad_w);
                f(ParamKind::Bias, &mut l.bias, &mut l.grad_b);
            }
            Layer::Activation(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// `Dense::infer` as its plain loops: one output at a time over
    /// 16-lane row blocks. The reference the tuned pass must equal.
    fn reference_infer(d: &Dense, x: &[f32], rows: usize) -> Vec<f32> {
        let (ni, no) = (d.in_dim, d.out_dim);
        let mut y = vec![0.0f32; rows * no];
        let mut xt = vec![[0.0f32; LANES]; ni];
        for (xs, ys) in x.chunks(LANES * ni).zip(y.chunks_mut(LANES * no)) {
            let lanes = xs.len() / ni;
            for (l, row) in xs.chunks_exact(ni).enumerate() {
                for (col, &v) in xt.iter_mut().zip(row) {
                    col[l] = v;
                }
            }
            for col in &mut xt {
                col[lanes..].fill(0.0);
            }
            for (o, (w, &b)) in d.weights.chunks_exact(ni).zip(&d.bias).enumerate() {
                let mut acc = [0.0f32; LANES];
                for (&wi, col) in w.iter().zip(&xt) {
                    for (a, &c) in acc.iter_mut().zip(col) {
                        *a += wi * c;
                    }
                }
                for (yl, &a) in ys.chunks_exact_mut(no).zip(&acc) {
                    yl[o] = b + a;
                }
            }
        }
        y
    }

    /// `Dense::backward` as its plain loops: `grad_w` row by row through
    /// memory, the input gradient row by row.
    fn reference_backward(d: &mut Dense, g: &[f32], rows: usize) -> Vec<f32> {
        let (ni, no) = (d.in_dim, d.out_dim);
        let x = std::mem::take(&mut d.cached_input);
        for gr in g.chunks_exact(no) {
            for (b, &go) in d.grad_b.iter_mut().zip(gr) {
                *b += go;
            }
        }
        for (o, grow) in d.grad_w.chunks_exact_mut(ni).enumerate() {
            for (gr, xr) in g.chunks_exact(no).zip(x.chunks_exact(ni)) {
                let go = gr[o];
                for (gw, &xi) in grow.iter_mut().zip(xr) {
                    *gw += go * xi;
                }
            }
        }
        let mut gx = vec![0.0f32; rows * ni];
        for (gxr, gr) in gx.chunks_exact_mut(ni).zip(g.chunks_exact(no)) {
            for (&go, w) in gr.iter().zip(d.weights.chunks_exact(ni)) {
                for (gi, &wi) in gxr.iter_mut().zip(w) {
                    *gi += go * wi;
                }
            }
        }
        gx
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The dense forward pass, weight and bias gradients (added onto
        /// nonzero running sums) and input gradient equal the plain
        /// loops bit for bit, on shapes that leave odd outputs, partial
        /// gradient blocks and partial row blocks, with zeros of both
        /// signs among the values.
        #[test]
        fn dense_passes_match_the_reference_loops(
            in_dim in 1usize..=70,
            out_dim in 1usize..=9,
            rows in 1usize..=40,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut value = move || match rng.gen_range(0..10) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.5f32..1.5),
            };
            let mut d = Dense::new(in_dim, out_dim, &mut SmallRng::seed_from_u64(seed ^ 1));
            d.weights.iter_mut().for_each(|w| *w = value());
            d.bias.iter_mut().for_each(|b| *b = value());
            d.grad_w.iter_mut().for_each(|w| *w = value());
            d.grad_b.iter_mut().for_each(|b| *b = value());
            let x: Vec<f32> = (0..rows * in_dim).map(|_| value()).collect();
            let g: Vec<f32> = (0..rows * out_dim).map(|_| value()).collect();
            let mut want = d.clone();
            proptest::prop_assert_eq!(bits(&d.infer(&x, rows)), bits(&reference_infer(&want, &x, rows)));
            d.cached_input = x.clone();
            want.cached_input = x;
            let gx = d.backward(&g, rows, true);
            let want_gx = reference_backward(&mut want, &g, rows);
            proptest::prop_assert_eq!(bits(&d.grad_w), bits(&want.grad_w));
            proptest::prop_assert_eq!(bits(&d.grad_b), bits(&want.grad_b));
            proptest::prop_assert_eq!(bits(&gx), bits(&want_gx));
        }
    }

    #[test]
    fn dense_forward_matches_manual() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut d = Dense::new(2, 2, &mut rng);
        d.weights = vec![1.0, 2.0, 3.0, 4.0];
        d.bias = vec![0.5, -0.5];
        let y = d.infer(&[1.0, -1.0], 1);
        assert_eq!(y, vec![1.0 - 2.0 + 0.5, 3.0 - 4.0 - 0.5]);
    }

    #[test]
    fn conv_forward_matches_manual() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut c = Conv2d::new(1, 1, 2, 3, 3, &mut rng);
        c.weights = vec![1.0, 0.0, 0.0, 1.0]; // identity-ish: x[0,0] + x[1,1]
        c.bias = vec![0.0];
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let y = c.infer(&x, 1);
        assert_eq!(y, vec![1.0 + 5.0, 2.0 + 6.0, 4.0 + 8.0, 5.0 + 9.0]);
    }

    #[test]
    fn pool_averages_and_scales() {
        let mut p = ScaledAvgPool::new(1, 2, 2);
        p.weights = vec![2.0];
        p.bias = vec![1.0];
        let y = Layer::ScaledAvgPool(p).infer(&[1.0, 2.0, 3.0, 4.0], 1);
        assert_eq!(y, vec![2.0 * 2.5 + 1.0]);
    }

    #[test]
    fn activation_shapes_preserved() {
        let mut a = Layer::Activation(ActivationLayer::new(Activation::Sigmoid));
        let y = a.forward(vec![0.0; 10], 1);
        assert_eq!(y.len(), 10);
        assert!((y[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn lenet_param_counts_match_paper_table4() {
        let mut rng = SmallRng::seed_from_u64(3);
        let c1 = Layer::Conv2d(Conv2d::new(1, 6, 5, 32, 32, &mut rng));
        let s2 = Layer::ScaledAvgPool(ScaledAvgPool::new(6, 28, 28));
        let c3 = Layer::Conv2d(Conv2d::new(6, 16, 5, 14, 14, &mut rng));
        let s4 = Layer::ScaledAvgPool(ScaledAvgPool::new(16, 10, 10));
        let f5 = Layer::Dense(Dense::new(400, 120, &mut rng));
        let f6 = Layer::Dense(Dense::new(120, 10, &mut rng));
        let total: usize = [&c1, &s2, &c3, &s4, &f5, &f6]
            .iter()
            .map(|l| l.param_count())
            .sum();
        assert_eq!(c1.param_count(), 156);
        assert_eq!(s2.param_count(), 12);
        assert_eq!(c3.param_count(), 2416);
        assert_eq!(s4.param_count(), 32);
        assert_eq!(f5.param_count(), 48120);
        assert_eq!(f6.param_count(), 1210);
        assert_eq!(total, 51_946, "Table IV: 51,946 trainable synapses");
    }

    #[test]
    fn relu_and_tanh_derivatives() {
        assert_eq!(Activation::Relu.derivative_from_output(2.0), 1.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        let y = Activation::Tanh.eval(0.3);
        assert!((Activation::Tanh.derivative_from_output(y) - (1.0 - y * y)).abs() < 1e-6);
    }
}
