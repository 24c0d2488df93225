//! The fixed-point inference engine: a bit-accurate software model of the
//! paper's processing engine.
//!
//! A trained float [`Network`] is *compiled* into a [`FixedNet`]: weights
//! quantized into per-layer `QFormat`s (sign-magnitude) and checked
//! against the layer's alphabet, biases widened to the accumulator
//! fraction, and every activation replaced by the PLAN sigmoid unit (a
//! table of the bit-exact reference the gate-level model is tested
//! against). Inference runs
//! as an exact integer dot product per neuron; the ASM select/shift/add
//! datapath stays as the reference it is tested against and as the
//! source of the cost model's operand traces.
//!
//! Activations and input pixels travel as unsigned `Q0.(bits-1)` words —
//! sigmoid outputs live in `[0, 1)`, so the sign lane of the datapath is
//! only exercised by weights.

use man_fixed::quantize::{f32_quantizable, fit_format, quantize_f32};
use man_fixed::QFormat;
use man_hw::components::activation::{plan_sigmoid_fixed, PlanParams};
use man_nn::layers::Layer;
use man_nn::network::Network;
use man_par::{parallel_map, Parallelism, ShardPlan};
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::alphabet::AlphabetSet;
use crate::asm::{AsmMultiplier, AsmPlan};

/// Per-layer alphabet assignment (uniform or mixed, as in the paper's
/// Section VI-E where early layers use `{1}` and late layers `{1,3}` /
/// `{1,3,5,7}`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerAlphabets {
    sets: Vec<AlphabetSet>,
}

impl LayerAlphabets {
    /// The same alphabet set for every parameterized layer.
    pub fn uniform(set: AlphabetSet, layers: usize) -> Self {
        Self {
            sets: vec![set; layers],
        }
    }

    /// An explicit per-layer assignment.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is empty.
    pub fn mixed(sets: Vec<AlphabetSet>) -> Self {
        assert!(!sets.is_empty(), "need at least one layer");
        Self { sets }
    }

    /// The set for parameterized layer `i`, or `None` past the last
    /// configured layer.
    pub fn get(&self, i: usize) -> Option<&AlphabetSet> {
        self.sets.get(i)
    }

    /// Number of layers configured.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` when no layer is configured. The constructors reject an
    /// empty assignment, but a value deserialized from an artifact can
    /// still be empty — callers validating untrusted input should check.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The per-layer sets.
    pub fn sets(&self) -> &[AlphabetSet] {
        &self.sets
    }

    /// A compact label, e.g. `"1{1}"` or `"mixed[1,1,2,4]"`.
    pub fn label(&self) -> String {
        if self.sets.windows(2).all(|w| w[0] == w[1]) {
            self.sets[0].label()
        } else {
            format!(
                "mixed[{}]",
                self.sets
                    .iter()
                    .map(|s| s.len().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )
        }
    }
}

/// Quantization plan: word length plus one weight format per parameterized
/// layer, fitted once on the *unconstrained* trained network and then
/// frozen for retraining and compilation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantSpec {
    bits: u32,
    layer_formats: Vec<QFormat>,
}

impl QuantSpec {
    /// Fits per-layer formats to the weight ranges of `net`.
    pub fn fit(net: &Network, bits: u32) -> Self {
        let layer_formats = net
            .layers()
            .iter()
            .filter_map(|l| parts_of(l).map(|(_, w, _)| fit_format(bits, w)))
            .collect();
        Self {
            bits,
            layer_formats,
        }
    }

    /// Word length.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Per-parameterized-layer weight formats.
    pub fn layer_formats(&self) -> &[QFormat] {
        &self.layer_formats
    }

    /// Activation fraction: activations are unsigned `Q0.(bits-1)`.
    pub(crate) fn act_frac(&self) -> u32 {
        self.bits - 1
    }
}

/// A parameterized layer's geometry with its float weights and biases;
/// `None` for an activation.
fn parts_of(layer: &Layer) -> Option<(Shape, &[f32], &[f32])> {
    match layer {
        Layer::Dense(d) => Some((
            Shape::Dense {
                in_dim: d.in_dim,
                out_dim: d.out_dim,
            },
            d.weights(),
            d.bias(),
        )),
        Layer::Conv2d(c) => Some((
            Shape::Conv {
                in_ch: c.in_channels,
                out_ch: c.out_channels,
                k: c.kernel,
                in_h: c.in_h,
                in_w: c.in_w,
            },
            c.weights(),
            c.bias(),
        )),
        Layer::ScaledAvgPool(p) => Some((
            Shape::Pool {
                channels: p.channels,
                in_h: p.in_h,
                in_w: p.in_w,
            },
            p.weights(),
            p.bias(),
        )),
        Layer::Activation(_) => None,
    }
}

/// Why a float network failed to compile.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The architecture is not (parameterized layer → sigmoid)* ending in
    /// a logits layer.
    UnsupportedArchitecture(String),
    /// A weight's quartets are not representable under the assigned
    /// alphabet set (the network was not constrained before compiling).
    UnconstrainedWeight {
        /// Parameterized layer index.
        layer: usize,
        /// The weight magnitude that failed to decode.
        magnitude: u32,
    },
    /// The alphabet assignment does not cover every parameterized layer.
    LayerCountMismatch {
        /// Parameterized layers in the network.
        expected: usize,
        /// Sets provided.
        got: usize,
    },
    /// The quantization spec does not fit the network: a word length the
    /// datapath cannot build, a format count other than the
    /// parameterized-layer count, or a format of another word length.
    InvalidSpec(String),
    /// A layer's dimensions are degenerate, disagree with its weight or
    /// bias count, or do not chain onto the previous layer's output.
    InvalidGeometry {
        /// Network layer index (activations counted).
        layer: usize,
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnsupportedArchitecture(msg) => {
                write!(f, "unsupported architecture: {msg}")
            }
            CompileError::UnconstrainedWeight { layer, magnitude } => write!(
                f,
                "layer {layer} holds magnitude {magnitude} not representable under its alphabet set (constrain the network first)"
            ),
            CompileError::LayerCountMismatch { expected, got } => write!(
                f,
                "alphabet assignment covers {got} layers but the network has {expected}"
            ),
            CompileError::InvalidSpec(msg) => write!(f, "invalid quantization spec: {msg}"),
            CompileError::InvalidGeometry { layer, reason } => {
                write!(f, "layer {layer} has an invalid geometry: {reason}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// What follows a MAC layer.
#[derive(Clone, Debug, PartialEq)]
enum OutputStage {
    /// PLAN sigmoid into the next layer's unsigned activation word.
    Sigmoid,
    /// Saturating requantization to a signed `bits`-wide word — used by
    /// convolution layers feeding a pooling layer directly (the LeNet
    /// structure squashes only after pooling).
    Requant,
    /// Raw accumulator values (the classifier head).
    Logits,
}

#[derive(Clone, Debug)]
struct MacParams {
    asm: AsmMultiplier,
    /// Sign-folded weights (`-mag` when the sign bit is set), one
    /// row-major slab: the fan-in run of output `o` (dense), output
    /// channel `oc` (conv) or channel `ch` (pool) starts at
    /// `o ·` [`Shape::stride`], and a conv row's padding holds zeros.
    weights: Vec<i16>,
    /// The ASM control word of every weight magnitude this layer holds,
    /// indexed by magnitude (`None` for magnitudes no weight uses) —
    /// what the reference datapath selects and shifts with.
    plans: Vec<Option<AsmPlan>>,
    /// Longest run of products whose `i32` sum cannot overflow (see
    /// [`FixedNet::compile_mac`]).
    chunk: usize,
    /// Biases at the accumulator fraction.
    bias: Vec<i64>,
    /// Weight format (fraction defines the accumulator fraction).
    w_format: QFormat,
    output: OutputStage,
}

impl MacParams {
    /// Exact `Σ w·x` of a weight row and its inputs: `i16 × i16`
    /// products summed in `i32` runs of at most `chunk`, each run folded
    /// into the `i64` result. Integer addition is associative, so the
    /// grouping cannot change the value — only the bound on `chunk`
    /// keeps every partial sum in range. A fan-in that fits one run
    /// skips the splitting.
    #[inline]
    fn dot(&self, w: &[i16], x: &[i16]) -> i64 {
        if x.len() <= self.chunk {
            return i64::from(dot_run(w, x));
        }
        w.chunks(self.chunk)
            .zip(x.chunks(self.chunk))
            .map(|(w, x)| i64::from(dot_run(w, x)))
            .sum()
    }

    /// One multiply-accumulate through the ASM datapath: the weight's
    /// control word applied to the input's pre-computer bank, signs
    /// recombined as the sign-magnitude hardware does, optionally
    /// recorded into the operand trace.
    fn asm_step(
        &self,
        acc: &mut i64,
        wi: usize,
        x: i16,
        bank: &[u64],
        trace: &mut Option<&mut LayerTrace>,
    ) {
        let w = self.weights[wi];
        let (w_neg, w_mag) = (w < 0, u32::from(w.unsigned_abs()));
        let plan = self.plans[w_mag as usize]
            .as_ref()
            .expect("compile decoded every weight magnitude of the layer");
        let p = man_fixed::bits::apply_sign(self.asm.apply(plan, bank), w_neg ^ (x < 0));
        if let Some(t) = trace.as_deref_mut() {
            t.record(w_mag, w_neg, u32::from(x.unsigned_abs()), x < 0, p, *acc);
        }
        *acc += p;
    }
}

/// The geometry a parameterized layer's weights are laid over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Dense {
        in_dim: usize,
        out_dim: usize,
    },
    /// Valid, stride-1 convolution over channels-first `[C, H, W]` input.
    Conv {
        in_ch: usize,
        out_ch: usize,
        k: usize,
        in_h: usize,
        in_w: usize,
    },
    /// LeNet trainable pooling: 2×2 average, one multiplicative weight and
    /// bias per channel (the weight goes through the ASM like any other).
    Pool {
        channels: usize,
        in_h: usize,
        in_w: usize,
    },
}

/// What one layer's shape costs per inference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Geometry {
    /// Input activations read.
    in_len: usize,
    /// Outputs produced.
    out_len: usize,
    /// Multiply-accumulates.
    macs: usize,
    /// Neuron outputs (activation-unit uses).
    neurons: usize,
}

impl Shape {
    /// The layer's per-inference geometry, or why it has none: a zero
    /// dimension, a kernel larger than its input, odd pool sides, or a
    /// size that overflows `usize`. Nothing geometry-sized exists before
    /// this has been checked.
    fn geometry(&self) -> Result<Geometry, String> {
        let mul = |a: usize, b: usize| a.checked_mul(b).ok_or("its size overflows");
        match *self {
            Shape::Dense { in_dim, out_dim } => {
                if in_dim == 0 || out_dim == 0 {
                    return Err(format!("dense {in_dim} → {out_dim} has a zero width"));
                }
                Ok(Geometry {
                    in_len: in_dim,
                    out_len: out_dim,
                    macs: mul(in_dim, out_dim)?,
                    neurons: out_dim,
                })
            }
            Shape::Conv {
                in_ch,
                out_ch,
                k,
                in_h,
                in_w,
            } => {
                if in_ch == 0 || out_ch == 0 {
                    return Err(format!("conv {in_ch} → {out_ch} channels has a zero count"));
                }
                if k == 0 || k > in_h || k > in_w {
                    return Err(format!("kernel {k} does not fit a {in_h}×{in_w} input"));
                }
                let out_len = mul(out_ch, mul(in_h - k + 1, in_w - k + 1)?)?;
                Ok(Geometry {
                    in_len: mul(in_ch, mul(in_h, in_w)?)?,
                    out_len,
                    macs: mul(out_len, mul(in_ch, mul(k, k)?)?)?,
                    neurons: out_len,
                })
            }
            Shape::Pool {
                channels,
                in_h,
                in_w,
            } => {
                if channels == 0 || in_h == 0 || in_w == 0 || in_h % 2 != 0 || in_w % 2 != 0 {
                    return Err(format!(
                        "2×2 pool over {channels} channels of {in_h}×{in_w} needs nonzero, even sides"
                    ));
                }
                let out_len = mul(channels, mul(in_h, in_w)?)? / 4;
                Ok(Geometry {
                    in_len: out_len * 4,
                    out_len,
                    macs: out_len,
                    neurons: out_len,
                })
            }
        }
    }

    /// Weight rows (dense outputs, conv output channels, pool channels),
    /// each with one bias.
    fn rows(&self) -> usize {
        match *self {
            Shape::Dense { out_dim, .. } => out_dim,
            Shape::Conv { out_ch, .. } => out_ch,
            Shape::Pool { channels, .. } => channels,
        }
    }

    /// Weights per row: the fan-in, `(c, ky, kx)`-ordered for a conv.
    /// Call only on a shape whose [`Shape::geometry`] is `Ok`.
    fn fan_in(&self) -> usize {
        match *self {
            Shape::Dense { in_dim, .. } => in_dim,
            Shape::Conv { in_ch, k, .. } => in_ch * k * k,
            Shape::Pool { .. } => 1,
        }
    }

    /// Distance between consecutive rows of the compiled weight slab. A
    /// conv row is zero-padded to whole 16-lane blocks so that every
    /// position's dot runs without a scalar tail; the padding adds only
    /// zero products.
    fn stride(&self) -> usize {
        match self {
            Shape::Conv { .. } => self.fan_in().div_ceil(16) * 16,
            _ => self.fan_in(),
        }
    }
}

#[derive(Clone, Debug)]
struct FixedLayer {
    shape: Shape,
    /// `shape`'s geometry, checked by compile.
    geometry: Geometry,
    mac: MacParams,
}

/// A compiled fixed-point network.
///
/// It runs two datapaths over the same compiled weights. The serving
/// path ([`FixedNet::run`], and through it the accuracy evaluators) is a
/// plain exact-integer dot product per neuron.
/// The reference path ([`FixedNet::infer_raw`], and
/// [`FixedNet::sample_traces`] for the MACs it records) simulates the
/// paper's ASM select, shift and add. Every compiled weight decodes under
/// its layer's alphabet and a decodable weight multiplies exactly, so the
/// two agree bit for bit (DESIGN.md §10).
#[derive(Clone, Debug)]
pub struct FixedNet {
    bits: u32,
    act_frac: u32,
    layers: Vec<FixedLayer>,
    /// The activation unit every sigmoid stage applies; `None` when no
    /// layer feeds a sigmoid (the PLAN unit needs 6-bit words or more).
    sigmoid: Option<SigmoidTable>,
}

/// Zero elements past the end of every layer-input activation vector and
/// im2col buffer, so that a conv run copied in [`WINDOW`]-lane windows
/// may read and write up to `WINDOW - 1` elements past its end.
const WINDOW: usize = 8;

/// The activation unit (range compressor + PLAN sigmoid) as a table:
/// `plan_sigmoid_fixed` of every compressed magnitude up to the PLAN
/// saturation point `5 · 2^(bits-1)`, built once at compile.
#[derive(Clone, Debug)]
struct SigmoidTable {
    /// `2^(bits-1)`, the output word's 1.0: a negative input's output
    /// is `one - y(|x|)`.
    one: u16,
    /// `y(m)` for compressed magnitudes `m` in `0..=5 · 2^(bits-1)`;
    /// larger magnitudes saturate to the last entry.
    y: Vec<u16>,
}

/// The PLAN unit of `bits`-bit words: a `bits + 3`-bit input at the
/// activation fraction, so it holds the saturation point 5.0, and
/// `bits - 1` output bits.
fn plan_params(bits: u32) -> PlanParams {
    PlanParams {
        in_bits: bits + 3,
        in_frac: bits - 1,
        out_bits: bits - 1,
    }
}

impl SigmoidTable {
    fn new(plan: &PlanParams) -> Self {
        let saturation = 5i64 << plan.in_frac;
        Self {
            one: 1 << plan.out_bits,
            y: (0..=saturation)
                .map(|m| plan_sigmoid_fixed(m, plan) as u16)
                .collect(),
        }
    }

    /// The activation word of an accumulator holding `shift` more
    /// fraction bits than the PLAN input: the compressor's truncating
    /// shift, then the table. Its clamp to the PLAN input width needs no
    /// step of its own, since every clamped magnitude is past saturation.
    #[inline]
    fn apply(&self, acc: i64, shift: u32) -> i16 {
        let x = acc >> shift;
        let last = self.y.len() - 1;
        let y = self.y[(x.unsigned_abs() as usize).min(last)];
        (if x < 0 { self.one - y } else { y }) as i16
    }
}

/// `Σ w·x` of one run no longer than its layer's `chunk`, so no partial
/// sum leaves `i32`. Sixteen independent lane sums give the compiler a
/// vectorizable loop; which lane a product lands in cannot change the
/// total. Conv rows are padded to whole blocks of 16 (see
/// [`Shape::stride`]), so their runs leave no scalar tail. Inlined into
/// its callers, so that a conv's short rows pay no call per position.
#[inline(always)]
fn dot_run(w: &[i16], x: &[i16]) -> i32 {
    let body = w.len() / 16 * 16;
    let mut lanes = [0i32; 16];
    for (w, x) in w[..body].chunks_exact(16).zip(x[..body].chunks_exact(16)) {
        for ((lane, &a), &b) in lanes.iter_mut().zip(w).zip(x) {
            *lane += i32::from(a) * i32::from(b);
        }
    }
    let tail: i32 = w[body..]
        .iter()
        .zip(&x[body..])
        .map(|(&a, &b)| i32::from(a) * i32::from(b))
        .sum();
    lanes.iter().sum::<i32>() + tail
}

/// `w`'s rows of `fan` weights laid out `stride` apart, zero-filled
/// between.
fn pad_rows(w: Vec<i16>, fan: usize, stride: usize) -> Vec<i16> {
    if stride == fan {
        return w;
    }
    let mut out = vec![0; w.len() / fan * stride];
    for (dst, src) in out.chunks_exact_mut(stride).zip(w.chunks_exact(fan)) {
        dst[..fan].copy_from_slice(src);
    }
    out
}

/// The input offset of each `(c, ky)` run of `k` consecutive inputs that
/// output position `pos` (row-major) of a valid convolution reads, in the
/// fan-in order `(c, ky, kx)` its weights are stored in.
fn conv_runs(
    in_ch: usize,
    k: usize,
    in_h: usize,
    in_w: usize,
    pos: usize,
) -> impl Iterator<Item = usize> {
    let ow = in_w - k + 1;
    let corner = pos / ow * in_w + pos % ow;
    (0..in_ch).flat_map(move |c| (0..k).map(move |ky| c * in_h * in_w + ky * in_w + corner))
}

/// Fills `cols` (one row of `stride` per output position, then
/// [`WINDOW`] slack elements) with each position's fan-in of a
/// `(in_ch, k, in_h, in_w)` convolution over `x` (its inputs, then
/// [`WINDOW`] slack elements), in the order [`conv_runs`] defines but
/// walked as plain loops: its iterator adapters and division cost more
/// than the copies.
///
/// Each `(c, ky)` run is copied in whole [`WINDOW`]-lane windows, runs
/// in order: a run's last window spills past the run into the next one,
/// which overwrites it, and zero windows over the row's pad overwrite the
/// last run's spill. What spills past a row the next row overwrites, and
/// the last row's spill lands in the slack. So every copy has one fixed
/// length and none is a `memcpy` call, for any `k`.
fn im2col(
    x: &[i16],
    cols: &mut [i16],
    stride: usize,
    (in_ch, k, in_h, in_w): (usize, usize, usize, usize),
) {
    let mut row = 0;
    for oy in 0..=in_h - k {
        for ox in 0..=in_w - k {
            let col = &mut cols[row..];
            row += stride;
            let mut at = 0;
            for c in 0..in_ch {
                for ky in 0..k {
                    let src = c * in_h * in_w + ky * in_w + oy * in_w + ox;
                    let mut j = 0;
                    while j < k {
                        *window_mut(&mut col[at + j..]) = *window(&x[src + j..]);
                        j += WINDOW;
                    }
                    at += k;
                }
            }
            while at < stride {
                *window_mut(&mut col[at..]) = [0; WINDOW];
                at += WINDOW;
            }
        }
    }
}

/// The [`WINDOW`] values at the start of `v`.
fn window(v: &[i16]) -> &[i16; WINDOW] {
    v.first_chunk().expect("activations carry WINDOW slack")
}

/// The [`WINDOW`] slots at the start of `v`.
fn window_mut(v: &mut [i16]) -> &mut [i16; WINDOW] {
    v.first_chunk_mut().expect("im2col rows carry WINDOW slack")
}

/// Calls `f(ch, avg)` for every 2×2 pool window, channel by channel and
/// row-major within a channel: `avg` is the window's signed average
/// (truncating arithmetic shift, as the hardware adder tree plus wiring
/// would produce), saturated to the `bits`-wide activation word.
fn for_each_pool_avg(
    x: &[i16],
    in_h: usize,
    in_w: usize,
    bits: u32,
    mut f: impl FnMut(usize, i16),
) {
    let max_mag = (1i32 << (bits - 1)) - 1;
    for (ch, plane) in x.chunks_exact(in_h * in_w).enumerate() {
        for rows in plane.chunks_exact(2 * in_w) {
            let (top, bottom) = rows.split_at(in_w);
            for (t, b) in top.chunks_exact(2).zip(bottom.chunks_exact(2)) {
                let sum = [t[0], t[1], b[0], b[1]]
                    .iter()
                    .map(|&v| i32::from(v))
                    .sum::<i32>();
                f(ch, (sum >> 2).clamp(-max_mag, max_mag) as i16);
            }
        }
    }
}

impl FixedNet {
    /// Compiles a float network under a quantization spec and per-layer
    /// alphabet assignment.
    ///
    /// Weights must already lie on the constrained lattice (apply
    /// [`crate::constrain::constrain_slice`] or use the full alphabet set
    /// for a conventional baseline).
    ///
    /// The network may come from an untrusted artifact, so its shapes
    /// are checked before anything is sized by them: the spec's word
    /// length and format count, every layer's dimensions, weight and
    /// bias counts, and that each layer's input length is the previous
    /// layer's output length.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] on spec, geometry, architecture or
    /// representability violations.
    pub fn compile(
        net: &Network,
        spec: &QuantSpec,
        alphabets: &LayerAlphabets,
    ) -> Result<Self, CompileError> {
        let param_layers = net
            .layers()
            .iter()
            .filter(|l| parts_of(l).is_some())
            .count();
        if param_layers == 0 {
            return Err(CompileError::UnsupportedArchitecture(
                "the network has no parameterized layer".into(),
            ));
        }
        if alphabets.len() != param_layers {
            return Err(CompileError::LayerCountMismatch {
                expected: param_layers,
                got: alphabets.len(),
            });
        }
        let bits = spec.bits();
        // The ASM quartet scheme is defined for 3- to 16-bit words.
        if !(3..=16).contains(&bits) {
            return Err(CompileError::InvalidSpec(format!(
                "word length {bits} is outside 3..=16"
            )));
        }
        if spec.layer_formats().len() != param_layers {
            return Err(CompileError::InvalidSpec(format!(
                "{} layer formats for {param_layers} parameterized layers",
                spec.layer_formats().len()
            )));
        }
        if let Some(f) = spec
            .layer_formats()
            .iter()
            .find(|f| f.bits() != bits || f.frac() >= bits)
        {
            return Err(CompileError::InvalidSpec(format!(
                "a {}-bit format with {} fraction bits does not fit {bits}-bit words",
                f.bits(),
                f.frac()
            )));
        }
        let mut layers = Vec::new();
        let mut prev_out = None;
        let mut pi = 0usize; // parameterized-layer index
        let all = net.layers();
        let mut i = 0usize;
        while i < all.len() {
            let layer = &all[i];
            let Some((shape, weights, bias_f)) = parts_of(layer) else {
                return Err(CompileError::UnsupportedArchitecture(format!(
                    "layer {i} is a bare activation; activations must follow a parameterized layer"
                )));
            };
            let invalid = |reason: String| CompileError::InvalidGeometry { layer: i, reason };
            let geometry = shape.geometry().map_err(invalid)?;
            let want = shape.rows() * shape.fan_in();
            if weights.len() != want || bias_f.len() != shape.rows() {
                return Err(invalid(format!(
                    "{} weights and {} biases where its shape needs {want} and {}",
                    weights.len(),
                    bias_f.len(),
                    shape.rows()
                )));
            }
            if let Some(prev) = prev_out.filter(|&p| p != geometry.in_len) {
                return Err(invalid(format!(
                    "it reads {} inputs but the layer before yields {prev}",
                    geometry.in_len
                )));
            }
            prev_out = Some(geometry.out_len);
            // Determine the output stage: a following sigmoid, or logits if
            // this is the last layer.
            let output = match all.get(i + 1) {
                Some(Layer::Activation(a))
                    if a.activation == man_nn::layers::Activation::Sigmoid =>
                {
                    // The PLAN unit emits `bits - 1` output bits and is
                    // only defined for at least 5 of them.
                    if bits < 6 {
                        return Err(CompileError::UnsupportedArchitecture(format!(
                            "layer {i} feeds a sigmoid, whose PLAN unit needs at least 6-bit words (got {bits})"
                        )));
                    }
                    // The engine's scores are the last layer's raw
                    // accumulators; a squashed last layer has none.
                    if i + 2 == all.len() {
                        return Err(CompileError::UnsupportedArchitecture(format!(
                            "layer {i} feeds a trailing sigmoid; the last layer must emit logits"
                        )));
                    }
                    i += 1;
                    OutputStage::Sigmoid
                }
                Some(Layer::Activation(_)) => {
                    return Err(CompileError::UnsupportedArchitecture(
                        "the fixed engine implements sigmoid activations only".into(),
                    ))
                }
                Some(Layer::ScaledAvgPool(_)) if matches!(layer, Layer::Conv2d(_)) => {
                    // LeNet structure: the convolution's accumulator is
                    // requantized and pooled before the squash.
                    OutputStage::Requant
                }
                Some(_) => OutputStage::Logits,
                None => OutputStage::Logits,
            };
            if output == OutputStage::Logits && i + 1 != all.len() {
                return Err(CompileError::UnsupportedArchitecture(format!(
                    "layer {i} feeds the next layer without an activation"
                )));
            }
            let set = alphabets
                .get(pi)
                .expect("length verified against param_layers above")
                .clone();
            let format = spec.layer_formats()[pi];
            let mut mac = Self::compile_mac(weights, bias_f, bits, format, set, spec, pi, output)?;
            mac.weights = pad_rows(mac.weights, shape.fan_in(), shape.stride());
            layers.push(FixedLayer {
                shape,
                geometry,
                mac,
            });
            pi += 1;
            i += 1;
        }
        let sigmoid = layers
            .iter()
            .any(|l| l.mac.output == OutputStage::Sigmoid)
            .then(|| SigmoidTable::new(&plan_params(bits)));
        Ok(Self {
            bits,
            act_frac: spec.act_frac(),
            layers,
            sigmoid,
        })
    }

    /// Quantizes and checks one layer's weights.
    ///
    /// Each weight is split by `sign_magnitude` (which saturates the
    /// format minimum `-2^(bits-1)` to magnitude `2^(bits-1) - 1`, as the
    /// datapath does) and its magnitude must decode under the layer's
    /// alphabet. The pair is stored folded back into one `i16`, so the
    /// integer path multiplies by exactly what the ASM would.
    ///
    /// The `i32` run length follows from the word length: every
    /// activation magnitude is below `2^(bits-1)`, so one product is at
    /// most `max|w| · (2^(bits-1) - 1)` and `chunk` of them cannot pass
    /// `i32::MAX`.
    #[allow(clippy::too_many_arguments)]
    fn compile_mac(
        weights: &[f32],
        bias_f: &[f32],
        bits: u32,
        format: QFormat,
        set: AlphabetSet,
        spec: &QuantSpec,
        layer_index: usize,
        output: OutputStage,
    ) -> Result<MacParams, CompileError> {
        let asm = AsmMultiplier::new(bits, set);
        let mut plans: Vec<Option<AsmPlan>> = Vec::new();
        let mut folded = Vec::with_capacity(weights.len());
        let (frac, lo, hi) = (format.frac(), format.min_raw(), format.max_raw());
        assert!(
            f32_quantizable(lo, hi),
            "{bits}-bit words are too wide for the f32 quantizer"
        );
        for &w in weights {
            let raw = quantize_f32(w, frac, lo, hi);
            let (neg, mag) = man_fixed::bits::sign_magnitude(raw, bits);
            let slot = mag as usize;
            if plans.len() <= slot {
                plans.resize(slot + 1, None);
            }
            if plans[slot].is_none() {
                plans[slot] =
                    Some(
                        asm.decode(mag)
                            .map_err(|e| CompileError::UnconstrainedWeight {
                                layer: layer_index,
                                magnitude: e.magnitude,
                            })?,
                    );
            }
            let mag = i16::try_from(mag).expect("the ASM caps word length at 16 bits");
            folded.push(if neg { -mag } else { mag });
        }
        let max_w = folded.iter().map(|w| i64::from(w.unsigned_abs())).max();
        let max_x = (1i64 << (bits - 1)) - 1;
        let chunk = (i64::from(i32::MAX) / (max_w.unwrap_or(0).max(1) * max_x)).max(1);
        let acc_frac = spec.act_frac() + format.frac();
        let bias = bias_f
            .iter()
            .map(|&b| (b as f64 * (1u64 << acc_frac) as f64).round() as i64)
            .collect();
        Ok(MacParams {
            asm,
            weights: folded,
            plans,
            chunk: chunk as usize,
            bias,
            w_format: format,
            output,
        })
    }

    /// Word length.
    pub(crate) fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of parameterized layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Flat input length the network expects (pixels per image).
    pub fn input_len(&self) -> usize {
        self.layers[0].geometry.in_len
    }

    /// Multiply-accumulate operations per inference, per layer — the cycle
    /// model's input (4 MACs per cycle on the 4-lane unit).
    pub(crate) fn macs_per_layer(&self) -> Vec<u64> {
        self.layers.iter().map(|l| l.geometry.macs as u64).collect()
    }

    /// Multiply-accumulate operations one whole inference costs (the
    /// per-layer `FixedNet::macs_per_layer` summed) — recorded at
    /// compile time and fed to the `man-par` Auto tuner as the work
    /// measure per batch row.
    pub fn macs_per_inference(&self) -> u64 {
        self.macs_per_layer().iter().sum()
    }

    /// Neuron outputs per inference, per layer (activation-unit uses).
    pub(crate) fn neurons_per_layer(&self) -> Vec<u64> {
        self.layers
            .iter()
            .map(|l| l.geometry.neurons as u64)
            .collect()
    }

    /// The forward pass both datapaths share, layer-major: every row
    /// passes through a layer before any row starts the next, so each
    /// layer's weights stay in cache across the rows. Input quantization
    /// and the output stages (PLAN sigmoid, requantization, logits) are
    /// the same integer arithmetic for both datapaths, and
    /// `layer_accs(li, layer, x)` supplies one row's accumulators of a
    /// layer from its sign-folded input activations, which are followed
    /// by [`WINDOW`] zeros. Returns each row's logits, in row order.
    fn forward<R: AsRef<[f32]>>(
        &self,
        rows: &[R],
        mut layer_accs: impl FnMut(usize, &FixedLayer, &[i16]) -> Vec<i64>,
    ) -> Vec<Vec<i64>> {
        let widest = self.layers.iter().map(|l| l.geometry.in_len).max();
        let top = (1 << self.act_frac) - 1;
        let mut acts: Vec<Vec<i16>> = rows
            .iter()
            .map(|image| {
                let image = image.as_ref();
                assert_eq!(
                    image.len(),
                    self.input_len(),
                    "input has {} values but the network expects {}",
                    image.len(),
                    self.input_len()
                );
                let mut x = Vec::with_capacity(widest.unwrap_or(0) + WINDOW);
                x.extend(
                    image
                        .iter()
                        .map(|&p| quantize_f32(p, self.act_frac, 0, top) as i16),
                );
                x
            })
            .collect();
        let max_mag = (1i64 << (self.bits - 1)) - 1;
        let (last, hidden) = self
            .layers
            .split_last()
            .expect("compile keeps at least one layer");
        for (li, layer) in hidden.iter().enumerate() {
            // The accumulator holds the weight fraction on top of the
            // activation fraction the PLAN input and requant word use.
            let shift = layer.mac.w_format.frac();
            for x in &mut acts {
                x.resize(x.len() + WINDOW, 0);
                let accs = layer_accs(li, layer, x);
                x.clear();
                match layer.mac.output {
                    OutputStage::Sigmoid => {
                        let table = self
                            .sigmoid
                            .as_ref()
                            .expect("compile tabulates the PLAN unit of a net with a sigmoid");
                        x.extend(accs.iter().map(|&a| table.apply(a, shift)));
                    }
                    OutputStage::Requant => {
                        // Saturating arithmetic shift back to the activation
                        // fraction: the hardware word between conv and pool.
                        x.extend(
                            accs.iter()
                                .map(|&a| (a >> shift).clamp(-max_mag, max_mag) as i16),
                        );
                    }
                    OutputStage::Logits => {
                        unreachable!("compile puts logits on the last layer only")
                    }
                }
            }
        }
        acts.iter_mut()
            .map(|x| {
                x.resize(x.len() + WINDOW, 0);
                layer_accs(hidden.len(), last, x)
            })
            .collect()
    }

    /// One layer through the exact-integer datapath.
    /// `x` is followed by [`WINDOW`] zeros, which only im2col reads.
    /// `cols` is the im2col column buffer a conv layer resizes and
    /// rewrites whole, so one buffer serves every row and layer of a
    /// call without re-zeroing.
    fn exact_layer(&self, layer: &FixedLayer, x: &[i16], cols: &mut Vec<i16>) -> Vec<i64> {
        let mac = &layer.mac;
        match layer.shape {
            Shape::Dense { in_dim, .. } => mac
                .weights
                .chunks_exact(in_dim)
                .zip(&mac.bias)
                .map(|(w, &bias)| bias + mac.dot(w, &x[..in_dim]))
                .collect(),
            Shape::Conv {
                in_ch,
                out_ch,
                k,
                in_h,
                in_w,
            } => {
                // Every output position's fan-in, in one zero-padded row
                // per position shared by all output channels. im2col
                // writes each row's runs and pad, so what the buffer held
                // before is never read.
                let stride = layer.shape.stride();
                let positions = (in_h - k + 1) * (in_w - k + 1);
                cols.resize(positions * stride + WINDOW, 0);
                im2col(x, cols, stride, (in_ch, k, in_h, in_w));
                let mut accs = Vec::with_capacity(out_ch * positions);
                for (w, &bias) in mac.weights.chunks_exact(stride).zip(&mac.bias) {
                    let cols = cols[..positions * stride].chunks_exact(stride);
                    // A row of one `i32` run (every conv below 16 bits)
                    // is checked once here, not once per position.
                    if stride <= mac.chunk {
                        accs.extend(cols.map(|col| bias + i64::from(dot_run(w, col))));
                    } else {
                        accs.extend(cols.map(|col| bias + mac.dot(w, col)));
                    }
                }
                accs
            }
            Shape::Pool { in_h, in_w, .. } => {
                let x = &x[..layer.geometry.in_len];
                let mut accs = Vec::with_capacity(x.len() / 4);
                for_each_pool_avg(x, in_h, in_w, self.bits, |ch, avg| {
                    accs.push(mac.bias[ch] + i64::from(mac.weights[ch]) * i64::from(avg));
                });
                accs
            }
        }
    }

    /// One layer through the ASM reference datapath, in the sequential
    /// fan-in order the operand trace records. Each layer-input
    /// activation's pre-computer bank is computed once and shared by
    /// every weight it meets (the CSHM arrangement); pool layers
    /// multiply a derived window average, whose bank is computed where
    /// it is used.
    ///
    /// With a `trace`, the datapath is simulated only until the trace is
    /// full: the outputs left then come from [`FixedNet::exact_layer`],
    /// which equals the ASM bit for bit (DESIGN.md §10). Without one, every
    /// MAC is simulated: this is the oracle.
    /// `x` is followed by [`WINDOW`] zeros, which only im2col reads.
    fn asm_layer(
        &self,
        layer: &FixedLayer,
        x: &[i16],
        mut trace: Option<&mut LayerTrace>,
    ) -> Vec<i64> {
        let full = |trace: &Option<&mut LayerTrace>| trace.as_deref().is_some_and(LayerTrace::full);
        let xs = &x[..layer.geometry.in_len];
        let mac = &layer.mac;
        let width = mac.asm.alphabet().len();
        let bank_of = |v: i16| mac.asm.precompute(u32::from(v.unsigned_abs()));
        let banks: Vec<u64> = match layer.shape {
            Shape::Pool { .. } => Vec::new(),
            _ => xs.iter().flat_map(|&v| bank_of(v)).collect(),
        };
        let bank = |i: usize| &banks[i * width..(i + 1) * width];
        let mut accs = Vec::with_capacity(layer.geometry.out_len);
        match layer.shape {
            Shape::Dense { in_dim, out_dim } => {
                for o in 0..out_dim {
                    if full(&trace) {
                        break;
                    }
                    let mut acc = mac.bias[o];
                    for (i, &xi) in xs.iter().enumerate() {
                        mac.asm_step(&mut acc, o * in_dim + i, xi, bank(i), &mut trace);
                    }
                    accs.push(acc);
                }
            }
            Shape::Conv {
                in_ch,
                out_ch,
                k,
                in_h,
                in_w,
            } => {
                let stride = layer.shape.stride();
                let positions = (in_h - k + 1) * (in_w - k + 1);
                'outputs: for oc in 0..out_ch {
                    for pos in 0..positions {
                        if full(&trace) {
                            break 'outputs;
                        }
                        let mut acc = mac.bias[oc];
                        for (run, src) in conv_runs(in_ch, k, in_h, in_w, pos).enumerate() {
                            for kx in 0..k {
                                let (wi, xi) = (oc * stride + run * k + kx, src + kx);
                                mac.asm_step(&mut acc, wi, xs[xi], bank(xi), &mut trace);
                            }
                        }
                        accs.push(acc);
                    }
                }
            }
            Shape::Pool { in_h, in_w, .. } => {
                for_each_pool_avg(xs, in_h, in_w, self.bits, |ch, avg| {
                    // Outputs go in order, and a full trace stays full.
                    if !full(&trace) {
                        let mut acc = mac.bias[ch];
                        mac.asm_step(&mut acc, ch, avg, &bank_of(avg), &mut trace);
                        accs.push(acc);
                    }
                });
            }
        }
        if accs.len() < layer.geometry.out_len {
            let exact = self.exact_layer(layer, x, &mut Vec::new());
            accs.extend_from_slice(&exact[accs.len()..]);
        }
        accs
    }

    /// Runs one inference through the ASM reference datapath, returning
    /// the raw output-layer accumulators ("logits" at the final layer's
    /// accumulator fraction). This is the oracle the exact-integer path
    /// is tested against; serve through [`FixedNet::run`].
    ///
    /// # Panics
    ///
    /// Panics if `image` does not hold [`FixedNet::input_len`] values.
    pub fn infer_raw(&self, image: &[f32]) -> Vec<i64> {
        self.forward(&[image], |_, layer, x| self.asm_layer(layer, x, None))
            .swap_remove(0)
    }

    /// Runs `rows` through the exact-integer datapath under `plan`,
    /// layer by layer over the rows, so each layer's weights are
    /// streamed once per shard rather than once per row. `Sequential`
    /// runs the whole batch on the caller's thread; `Rows` splits it
    /// into one contiguous range per worker (every row costs the same)
    /// and concatenates the ranges' results in row order. Row `i` of the
    /// result is bit-identical to `infer_raw(rows[i])` for every plan.
    ///
    /// # Panics
    ///
    /// Panics if any row does not hold [`FixedNet::input_len`] values.
    pub fn run<R: AsRef<[f32]> + Sync>(&self, rows: &[R], plan: ShardPlan) -> Vec<Vec<i64>> {
        let exact = |rows: &[R]| {
            let mut cols = Vec::new();
            self.forward(rows, |_, layer, x| self.exact_layer(layer, x, &mut cols))
        };
        match plan {
            ShardPlan::Sequential => exact(rows),
            ShardPlan::Rows { workers } => {
                let (n, shards) = (rows.len(), workers.min(rows.len()));
                parallel_map(Parallelism::Threads(shards), shards, |s| {
                    exact(&rows[s * n / shards..(s + 1) * n / shards])
                })
                .into_iter()
                .flatten()
                .collect()
            }
        }
    }

    /// Classification accuracy over a test set: the exact argmax of each
    /// image's raw integer logits against its label.
    pub fn accuracy(&self, images: &[Vec<f32>], labels: &[usize]) -> f64 {
        self.accuracy_par(images, labels, Parallelism::Sequential)
    }

    /// [`FixedNet::accuracy`] run under the plan
    /// [`Parallelism::plan`] resolves for the whole set. Exactly the
    /// same count as the sequential pass — inference is deterministic
    /// per row — just faster on multi-core hosts.
    ///
    /// # Panics
    ///
    /// Panics if the image and label counts differ.
    pub fn accuracy_par(
        &self,
        images: &[Vec<f32>],
        labels: &[usize],
        parallelism: Parallelism,
    ) -> f64 {
        assert_eq!(images.len(), labels.len());
        if images.is_empty() {
            return 0.0;
        }
        let plan = parallelism.plan(self.macs_per_inference(), images.len());
        let correct = self
            .run(images, plan)
            .iter()
            .zip(labels)
            .filter(|(s, &l)| argmax_raw(s) == l)
            .count();
        correct as f64 / images.len() as f64
    }

    /// Runs ASM inferences over `images` collecting per-layer operand
    /// traces (up to `limit` MACs per layer) for the switching-activity
    /// power model, and stops at the first image after which every trace
    /// is full. A layer's MACs are simulated only while its trace records
    /// them; its other outputs come from the exact-integer dot, so the
    /// layers after it see the operands a full ASM walk gives them.
    ///
    /// # Panics
    ///
    /// Panics if an image does not hold [`FixedNet::input_len`] values.
    pub fn sample_traces(&self, images: &[Vec<f32>], limit: usize) -> Vec<LayerTrace> {
        let mut traces: Vec<LayerTrace> = (0..self.layers.len())
            .map(|_| LayerTrace::new(limit))
            .collect();
        // One image at a time, so the walk ends at the image that fills
        // the last trace.
        for image in images {
            self.forward(std::slice::from_ref(image), |li, layer, x| {
                self.asm_layer(layer, x, Some(&mut traces[li]))
            });
            if traces.iter().all(LayerTrace::full) {
                break;
            }
        }
        traces
    }
}

/// First-maximum argmax over exact integer logits. Working on the raw
/// `i64` values (instead of casting to `f32`) keeps large accumulators
/// that differ by a few LSBs from collapsing to the same float and
/// misordering; every consumer of a [`FixedNet`]'s scores should use
/// this so served classes match measured accuracy.
pub fn argmax_raw(scores: &[i64]) -> usize {
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate().skip(1) {
        if s > scores[best] {
            best = i;
        }
    }
    best
}

/// Operand trace of one layer: the real `(weight, input, product,
/// accumulator)` stream a lane sees, feeding the gate-level toggle
/// simulation.
#[derive(Clone, Debug)]
pub struct LayerTrace {
    limit: usize,
    /// Weight magnitudes.
    pub w_mag: Vec<u32>,
    /// Weight signs.
    pub w_neg: Vec<bool>,
    /// Input (activation) magnitudes.
    pub x_mag: Vec<u32>,
    /// Input signs (always `false` for sigmoid-fed layers).
    pub x_neg: Vec<bool>,
    /// Signed products.
    pub product: Vec<i64>,
    /// Accumulator value *before* adding the product.
    pub(crate) acc: Vec<i64>,
}

impl LayerTrace {
    fn new(limit: usize) -> Self {
        Self {
            limit,
            w_mag: Vec::new(),
            w_neg: Vec::new(),
            x_mag: Vec::new(),
            x_neg: Vec::new(),
            product: Vec::new(),
            acc: Vec::new(),
        }
    }

    fn record(&mut self, w_mag: u32, w_neg: bool, x_mag: u32, x_neg: bool, product: i64, acc: i64) {
        if self.full() {
            return;
        }
        self.w_mag.push(w_mag);
        self.w_neg.push(w_neg);
        self.x_mag.push(x_mag);
        self.x_neg.push(x_neg);
        self.product.push(product);
        self.acc.push(acc);
    }

    /// `true` once the trace holds `limit` MACs.
    pub(crate) fn full(&self) -> bool {
        self.w_mag.len() >= self.limit
    }

    /// Number of recorded MACs.
    pub fn len(&self) -> usize {
        self.w_mag.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.w_mag.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constrain::{constrain_slice, WeightLattice};
    use man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        Network::new(vec![
            Layer::Dense(Dense::new(16, 8, &mut rng)),
            Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
            Layer::Dense(Dense::new(8, 3, &mut rng)),
        ])
    }

    fn constrain_net(net: &mut Network, spec: &QuantSpec, alphabets: &LayerAlphabets) {
        let mut pi = 0;
        let bits = spec.bits();
        let formats = spec.layer_formats().to_vec();
        let sets = alphabets.sets().to_vec();
        net.visit_params_mut(|_, kind, values, _| {
            if kind == man_nn::layers::ParamKind::Weights {
                let lattice = WeightLattice::new(bits, &sets[pi]);
                constrain_slice(formats[pi], &lattice, values);
                pi += 1;
            }
        });
    }

    #[test]
    fn compile_rejects_unconstrained_weights() {
        let net = tiny_net(1);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a1(), 2);
        let err = FixedNet::compile(&net, &spec, &alphabets).unwrap_err();
        assert!(matches!(err, CompileError::UnconstrainedWeight { .. }));
    }

    #[test]
    fn compile_accepts_full_alphabet_without_constraining() {
        let net = tiny_net(2);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a8(), 2);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        assert_eq!(fixed.layer_count(), 2);
        assert_eq!(fixed.macs_per_layer(), vec![16 * 8, 8 * 3]);
    }

    #[test]
    fn compile_accepts_constrained_weights() {
        let mut net = tiny_net(3);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a1(), 2);
        constrain_net(&mut net, &spec, &alphabets);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        let x = vec![0.5f32; 16];
        let logits = fixed.infer_raw(&x);
        assert_eq!(logits.len(), 3);
    }

    #[test]
    fn fixed_inference_tracks_float_inference() {
        // With 12-bit words and the full alphabet, the fixed engine should
        // agree with the float network on comfortable-margin predictions.
        let net = tiny_net(4);
        let spec = QuantSpec::fit(&net, 12);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a8(), 2);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        let mut agree = 0;
        for i in 0..20 {
            let x: Vec<f32> = (0..16)
                .map(|j| ((i * 7 + j * 3) % 10) as f32 / 10.0)
                .collect();
            if argmax_raw(&fixed.run(&[&x], ShardPlan::Sequential)[0]) == net.predict(&x) {
                agree += 1;
            }
        }
        assert!(agree >= 18, "only {agree}/20 predictions agree");
    }

    /// A network whose last layer feeds a sigmoid has no logits to score
    /// with, so it does not compile.
    #[test]
    fn compile_rejects_a_trailing_sigmoid() {
        let mut rng = SmallRng::seed_from_u64(26);
        let net = Network::new(vec![
            Layer::Dense(Dense::new(16, 8, &mut rng)),
            Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
            Layer::Dense(Dense::new(8, 3, &mut rng)),
            Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        ]);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a8(), 2);
        let err = FixedNet::compile(&net, &spec, &alphabets).unwrap_err();
        assert_eq!(
            err,
            CompileError::UnsupportedArchitecture(
                "layer 2 feeds a trailing sigmoid; the last layer must emit logits".into()
            )
        );
    }

    #[test]
    fn mixed_alphabet_compile_requires_matching_length() {
        let net = tiny_net(5);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::mixed(vec![AlphabetSet::a8()]);
        let err = FixedNet::compile(&net, &spec, &alphabets).unwrap_err();
        assert!(matches!(err, CompileError::LayerCountMismatch { .. }));
    }

    #[test]
    fn parallel_accuracy_matches_sequential() {
        let mut net = tiny_net(79);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a4(), 2);
        constrain_net(&mut net, &spec, &alphabets);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        let images: Vec<Vec<f32>> = (0..23)
            .map(|i| {
                (0..16)
                    .map(|j| ((i * 7 + j * 2) % 9) as f32 / 9.0)
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..23).map(|i| i % 3).collect();
        let seq = fixed.accuracy(&images, &labels);
        for p in [
            Parallelism::Sequential,
            Parallelism::Threads(3),
            Parallelism::Auto,
        ] {
            assert_eq!(fixed.accuracy_par(&images, &labels, p), seq);
        }
    }

    #[test]
    fn row_sharded_batch_matches_the_oracle() {
        let mut net = tiny_net(78);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a1(), 2);
        constrain_net(&mut net, &spec, &alphabets);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        let images: Vec<Vec<f32>> = (0..17)
            .map(|i| (0..16).map(|j| ((i * 5 + j) % 11) as f32 / 11.0).collect())
            .collect();
        let oracle: Vec<Vec<i64>> = images.iter().map(|x| fixed.infer_raw(x)).collect();
        for workers in [1usize, 2, 4] {
            assert_eq!(
                fixed.run(&images, ShardPlan::Rows { workers }),
                oracle,
                "{workers} workers"
            );
        }
        assert_eq!(fixed.run(&images, ShardPlan::Sequential), oracle);
        assert!(fixed
            .run::<Vec<f32>>(&[], ShardPlan::Rows { workers: 4 })
            .is_empty());
    }

    /// The exact-integer path agrees with the ASM oracle on dense *and*
    /// conv → requant → pool stacks (signed activations into the pool
    /// layer), sequential and row-sharded.
    #[test]
    fn exact_path_matches_the_oracle_on_dense_and_conv() {
        use man_nn::layers::{Conv2d, ScaledAvgPool};
        let mut rng = SmallRng::seed_from_u64(91);
        let nets: Vec<(Network, usize, u32)> = vec![
            (
                Network::new(vec![
                    Layer::Dense(Dense::new(18, 48, &mut rng)),
                    Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
                    Layer::Dense(Dense::new(48, 5, &mut rng)),
                ]),
                18,
                8,
            ),
            (
                Network::new(vec![
                    Layer::Conv2d(Conv2d::new(1, 4, 3, 10, 10, &mut rng)),
                    Layer::ScaledAvgPool(ScaledAvgPool::new(4, 8, 8)),
                    Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
                    Layer::Dense(Dense::new(4 * 4 * 4, 3, &mut rng)),
                    Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
                    Layer::Dense(Dense::new(3, 2, &mut rng)),
                ]),
                100,
                12,
            ),
        ];
        for (mut net, in_len, bits) in nets {
            let spec = QuantSpec::fit(&net, bits);
            let layers = spec.layer_formats().len();
            let alphabets = LayerAlphabets::uniform(AlphabetSet::a2(), layers);
            constrain_net(&mut net, &spec, &alphabets);
            let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
            let rows: Vec<Vec<f32>> = (0..5)
                .map(|i| {
                    (0..in_len)
                        .map(|j| ((i * 17 + j * 7) % 23) as f32 / 23.0)
                        .collect()
                })
                .collect();
            let oracle: Vec<Vec<i64>> = rows.iter().map(|x| fixed.infer_raw(x)).collect();
            for plan in [ShardPlan::Sequential, ShardPlan::Rows { workers: 3 }] {
                assert_eq!(fixed.run(&rows, plan), oracle, "bits={bits} {plan:?}");
            }
        }
    }

    /// A convolution's fixed-point logits are its float outputs at the
    /// accumulator fraction, up to 16-bit rounding — which pins the
    /// `(c, ky, kx)` fan-in order both datapaths share.
    #[test]
    fn conv_logits_track_the_float_convolution() {
        use man_nn::layers::Conv2d;
        let mut rng = SmallRng::seed_from_u64(17);
        let net = Network::new(vec![Layer::Conv2d(Conv2d::new(2, 3, 3, 6, 8, &mut rng))]);
        let spec = QuantSpec::fit(&net, 16);
        let fixed =
            FixedNet::compile(&net, &spec, &LayerAlphabets::uniform(AlphabetSet::a8(), 1)).unwrap();
        let x: Vec<f32> = (0..2 * 6 * 8)
            .map(|i| (i * 37 % 101) as f32 / 101.0)
            .collect();
        let scale = (1u64 << (fixed.act_frac + spec.layer_formats()[0].frac())) as f64;
        let want = net.infer(&x);
        let got = &fixed.run(&[&x], ShardPlan::Sequential)[0];
        assert_eq!(got.len(), 3 * 4 * 6);
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (*g as f64 / scale - f64::from(*w)).abs() < 1e-3,
                "{g} vs {w}"
            );
        }
    }

    #[test]
    fn compile_rejects_layers_that_do_not_chain() {
        let mut rng = SmallRng::seed_from_u64(8);
        let net = Network::new(vec![
            Layer::Dense(Dense::new(16, 8, &mut rng)),
            Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
            Layer::Dense(Dense::new(9, 3, &mut rng)),
        ]);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a8(), 2);
        let err = FixedNet::compile(&net, &spec, &alphabets).unwrap_err();
        assert_eq!(
            err.to_string(),
            "layer 2 has an invalid geometry: it reads 9 inputs but the layer before yields 8"
        );
    }

    /// A one-layer logits network with every weight and bias set by
    /// hand under an explicit weight format.
    fn hand_set_net(bits: u32, w_frac: u32, weights: &[f32]) -> (FixedNet, QuantSpec) {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut net = Network::new(vec![Layer::Dense(Dense::new(weights.len(), 1, &mut rng))]);
        net.visit_params_mut(|_, kind, values, _| match kind {
            man_nn::layers::ParamKind::Weights => values.copy_from_slice(weights),
            man_nn::layers::ParamKind::Bias => values.fill(0.0),
        });
        let spec = QuantSpec {
            bits,
            layer_formats: vec![QFormat::new(bits, w_frac)],
        };
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a8(), 1);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        (fixed, spec)
    }

    /// A weight quantized to the format minimum `-2^(bits-1)` folds to
    /// the saturated magnitude `sign_magnitude` gives the ASM, so both
    /// datapaths multiply by `-(2^(bits-1) - 1)`.
    #[test]
    fn format_minimum_weight_folds_like_the_asm() {
        for bits in [4u32, 8, 12, 16] {
            let (fixed, _) = hand_set_net(bits, bits - 1, &[-1.0, 0.5]);
            let max_mag = (1i64 << (bits - 1)) - 1;
            let w = &fixed.layers[0].mac.weights;
            assert_eq!(i64::from(w[0]), -max_mag, "bits={bits}");
            let x = [0.75f32, 1.0];
            let xq: Vec<i64> = x
                .iter()
                .map(|&p| {
                    i64::from(quantize_f32(
                        p,
                        fixed.act_frac,
                        0,
                        (1 << fixed.act_frac) - 1,
                    ))
                })
                .collect();
            let want = -max_mag * xq[0] + (1i64 << (bits - 2)) * xq[1];
            assert_eq!(fixed.infer_raw(&x), vec![want], "bits={bits} oracle");
            assert_eq!(
                fixed.run(&[x], ShardPlan::Sequential),
                [[want]],
                "bits={bits} exact"
            );
        }
    }

    /// A 16-bit layer of maximum-magnitude weights fed maximum inputs: its
    /// `i32` runs hold two products, so a fan-in of 9 crosses four run
    /// boundaries, and a single `i32` sum would overflow 4× over.
    #[test]
    fn sixteen_bit_fan_in_crosses_the_chunk_bound_exactly() {
        let bits = 16;
        let w_max = 32_767.0 / 32_768.0;
        let (fixed, _) = hand_set_net(bits, bits - 1, &[w_max; 9]);
        let mac = &fixed.layers[0].mac;
        assert_eq!(mac.chunk, 2);
        assert!(mac.chunk < mac.weights.len());
        let x = vec![1.0f32; 9];
        let want = 9 * 32_767i64 * 32_767;
        assert!(want > i64::from(i32::MAX));
        assert_eq!(fixed.infer_raw(&x), vec![want]);
        assert_eq!(fixed.run(&[&x], ShardPlan::Sequential), [[want]]);
    }

    /// `sample_traces` as it was before it stopped simulating: every MAC
    /// of every image through the ASM and recorded, until the first image
    /// after which every layer holds `limit` MACs, each trace then cut to
    /// `limit`. Returns the traces, and each walked image's layer inputs
    /// and logits.
    #[allow(clippy::type_complexity)]
    fn full_asm_walk(
        fixed: &FixedNet,
        images: &[Vec<f32>],
        limit: usize,
    ) -> (Vec<LayerTrace>, Vec<(Vec<Vec<i16>>, Vec<i64>)>) {
        let mut traces: Vec<LayerTrace> = (0..fixed.layers.len())
            .map(|_| LayerTrace::new(usize::MAX))
            .collect();
        let mut walked = Vec::new();
        for image in images {
            let mut inputs = Vec::new();
            let logits = fixed.forward(std::slice::from_ref(image), |li, layer, x| {
                inputs.push(x.to_vec());
                fixed.asm_layer(layer, x, Some(&mut traces[li]))
            });
            walked.push((inputs, logits.concat()));
            if traces.iter().all(|t| t.len() >= limit) {
                break;
            }
        }
        for t in &mut traces {
            t.limit = limit;
            let n = t.len().min(limit);
            t.w_mag.truncate(n);
            t.w_neg.truncate(n);
            t.x_mag.truncate(n);
            t.x_neg.truncate(n);
            t.product.truncate(n);
            t.acc.truncate(n);
        }
        (traces, walked)
    }

    #[allow(clippy::type_complexity)]
    fn trace_fields(t: &LayerTrace) -> (usize, &[u32], &[bool], &[u32], &[bool], &[i64], &[i64]) {
        (
            t.limit, &t.w_mag, &t.w_neg, &t.x_mag, &t.x_neg, &t.product, &t.acc,
        )
    }

    /// Traces that stop simulating once full equal a full ASM walk's on
    /// dense, conv (kernels 1..=5) → requant → pool and dense stacks, at
    /// limits inside the first output, past several outputs and past every
    /// layer's MACs: every trace field, and every later layer's inputs and
    /// the logits of each walked image.
    #[test]
    fn sample_traces_match_a_full_asm_walk() {
        use man_nn::layers::{Conv2d, ScaledAvgPool};
        let mut rng = SmallRng::seed_from_u64(27);
        let sig = || Layer::Activation(ActivationLayer::new(Activation::Sigmoid));
        let mut nets: Vec<(Network, usize, u32)> = vec![(
            Network::new(vec![
                Layer::Dense(Dense::new(40, 30, &mut rng)),
                sig(),
                Layer::Dense(Dense::new(30, 12, &mut rng)),
                sig(),
                Layer::Dense(Dense::new(12, 4, &mut rng)),
            ]),
            40,
            8,
        )];
        for k in 1..=5usize {
            let (in_h, in_w) = (7 + k, 5 + k);
            nets.push((
                Network::new(vec![
                    Layer::Conv2d(Conv2d::new(2, 3, k, in_h, in_w, &mut rng)),
                    Layer::ScaledAvgPool(ScaledAvgPool::new(3, 8, 6)),
                    sig(),
                    Layer::Dense(Dense::new(3 * 4 * 3, 5, &mut rng)),
                    sig(),
                    Layer::Dense(Dense::new(5, 3, &mut rng)),
                ]),
                2 * in_h * in_w,
                if k % 2 == 0 { 8 } else { 12 },
            ));
        }
        for (mut net, in_len, bits) in nets {
            let spec = QuantSpec::fit(&net, bits);
            let layers = spec.layer_formats().len();
            let alphabets = LayerAlphabets::uniform(AlphabetSet::a2(), layers);
            constrain_net(&mut net, &spec, &alphabets);
            let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
            let images: Vec<Vec<f32>> = (0..4)
                .map(|i| {
                    (0..in_len)
                        .map(|j| ((i * 13 + j * 7) % 29) as f32 / 29.0)
                        .collect()
                })
                .collect();
            let most = *fixed.macs_per_layer().iter().max().unwrap() as usize;
            for limit in [1, 600, most + 1] {
                let got = fixed.sample_traces(&images, limit);
                let (want, walked) = full_asm_walk(&fixed, &images, limit);
                assert_eq!(got.len(), want.len());
                for (li, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        trace_fields(g),
                        trace_fields(w),
                        "bits={bits} limit={limit} layer {li}"
                    );
                }
                // The same walk with traces that stop simulating.
                let mut traces: Vec<LayerTrace> = (0..fixed.layers.len())
                    .map(|_| LayerTrace::new(limit))
                    .collect();
                for (image, (inputs, logits)) in images.iter().zip(&walked) {
                    let mut seen = Vec::new();
                    let out = fixed.forward(std::slice::from_ref(image), |li, layer, x| {
                        seen.push(x.to_vec());
                        fixed.asm_layer(layer, x, Some(&mut traces[li]))
                    });
                    assert_eq!(&seen, inputs, "bits={bits} limit={limit}");
                    assert_eq!(&out.concat(), logits, "bits={bits} limit={limit}");
                }
            }
        }
    }

    /// `sample_traces` walks one image at a time and stops after the
    /// image that fills every trace: an image past it is never read, so
    /// one of the wrong length there does not reach `forward`'s check.
    #[test]
    fn sample_traces_stop_before_the_image_after_the_last_full_trace() {
        let mut net = tiny_net(30);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a2(), 2);
        constrain_net(&mut net, &spec, &alphabets);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        let images = vec![vec![0.25f32; 16], vec![0.5f32; 3]];
        let traces = fixed.sample_traces(&images, 20);
        assert!(traces.iter().all(|t| t.len() == 20));
    }

    #[test]
    fn traces_capture_real_operands() {
        let mut net = tiny_net(6);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a2(), 2);
        constrain_net(&mut net, &spec, &alphabets);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        let images: Vec<Vec<f32>> = (0..4).map(|i| vec![0.1 * i as f32; 16]).collect();
        let traces = fixed.sample_traces(&images, 64);
        assert_eq!(traces.len(), 2);
        assert!(!traces[0].is_empty());
        for t in &traces {
            for i in 0..t.len() {
                let sign = if t.w_neg[i] ^ t.x_neg[i] { -1i64 } else { 1 };
                assert_eq!(
                    t.product[i],
                    sign * (t.w_mag[i] as i64) * (t.x_mag[i] as i64),
                    "trace product must be the real product"
                );
            }
        }
    }

    /// The sigmoid table equals the gate-level reference's bit-exact
    /// twin, range compressor included, for every word length the PLAN
    /// unit supports: on every compressed word at each weight fraction
    /// (with and without the bits the compressor truncates), and on
    /// accumulators at the saturation point, at the compressor's clamp
    /// and at the ends of `i64`.
    #[test]
    fn sigmoid_table_matches_the_activation_unit() {
        use man_hw::components::activation::activation_unit_fixed;
        assert_eq!(SigmoidTable::new(&plan_params(8)).y.len(), 641);
        assert_eq!(SigmoidTable::new(&plan_params(12)).y.len(), 10_241);
        for bits in 6..=16u32 {
            let plan = plan_params(bits);
            let table = SigmoidTable::new(&plan);
            let top = 1i64 << (plan.in_bits - 1);
            let saturation = 5i64 << plan.in_frac;
            for shift in [0, 1, bits / 2, bits - 1] {
                let acc_frac = plan.in_frac + shift;
                let check = |acc: i64| {
                    assert_eq!(
                        i64::from(table.apply(acc, shift)),
                        activation_unit_fixed(acc, acc_frac, &plan) as i64,
                        "bits={bits} shift={shift} acc={acc}"
                    );
                };
                let low = (1i64 << shift) - 1;
                for word in -top..top {
                    check(word << shift);
                    check((word << shift) + low);
                }
                for edge in [saturation, top] {
                    for d in -2..=2 {
                        check((edge + d) << shift);
                        check(-((edge + d) << shift));
                        check(((edge + d) << shift) - 1);
                    }
                }
                for acc in [i64::MIN, i64::MIN + 1, i64::MAX, i64::MAX - 1] {
                    check(acc);
                }
            }
        }
    }
}
