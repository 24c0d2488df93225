//! Property test of the exact-integer conv and pool path: for random
//! conv → requant → pool → sigmoid → dense stacks, `FixedNet::run` under
//! every shard plan equals the ASM reference datapath
//! `FixedNet::infer_raw` row by row. Kernels 1..=11 and 1..=8 channels
//! give fan-ins that mostly are not multiples of 16, so the zero padding
//! of the im2col rows and weights is always in play. im2col copies each
//! `k`-input run in 8-lane windows that spill past it: kernels past 8
//! take runs of two windows, and the last position's windows read past
//! the end of the layer input into its slack. 16-bit maximum-magnitude
//! weights make the `i32` chunk bound shorter than the fan-in.
//!
//! `run` goes layer by layer over a batch and reuses one im2col column
//! buffer for every row and conv layer of a call, so two-conv stacks
//! check that a second conv whose buffer is smaller or larger than the
//! first's reads none of what the first left, at batch sizes that put
//! shard boundaries mid-batch.

use man::alphabet::AlphabetSet;
use man::constrain::{constrain_slice, WeightLattice};
use man::fixed::{FixedNet, LayerAlphabets, QuantSpec};
use man_nn::layers::{Activation, ActivationLayer, Conv2d, Dense, Layer, ParamKind, ScaledAvgPool};
use man_nn::network::Network;
use man_par::ShardPlan;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The shape of one random conv stack.
#[derive(Clone, Copy, Debug)]
struct Stack {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    /// Conv output height and width (even, so the pool tiles them).
    oh: usize,
    ow: usize,
}

impl Stack {
    fn in_len(&self) -> usize {
        self.in_ch * (self.oh + self.k - 1) * (self.ow + self.k - 1)
    }

    fn network(&self, rng: &mut SmallRng) -> Network {
        let Stack {
            in_ch,
            out_ch,
            k,
            oh,
            ow,
        } = *self;
        let sig = || Layer::Activation(ActivationLayer::new(Activation::Sigmoid));
        let (in_h, in_w) = (oh + k - 1, ow + k - 1);
        Network::new(vec![
            Layer::Conv2d(Conv2d::new(in_ch, out_ch, k, in_h, in_w, rng)),
            Layer::ScaledAvgPool(ScaledAvgPool::new(out_ch, oh, ow)),
            sig(),
            Layer::Dense(Dense::new(out_ch * oh / 2 * ow / 2, 3, rng)),
        ])
    }
}

/// Compiles `stack` at `bits` under `set`: random biases and pool
/// coefficients, weights projected onto the set's lattice — or, with
/// `max_weights`, every conv weight at the largest magnitude the word
/// holds, one random sign per output channel, under the full alphabet.
fn compile(stack: Stack, bits: u32, set: AlphabetSet, max_weights: bool, seed: u64) -> FixedNet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = stack.network(&mut rng);
    let w_max = ((1u32 << (bits - 1)) - 1) as f32 / (1u32 << (bits - 1)) as f32;
    net.visit_params_mut(|layer, kind, values, _| match (layer, kind) {
        (0, ParamKind::Weights) if max_weights => {
            for row in values.chunks_mut(stack.in_ch * stack.k * stack.k) {
                row.fill(if rng.gen_range(0..2) == 0 {
                    w_max
                } else {
                    -w_max
                });
            }
        }
        (1, ParamKind::Weights) | (_, ParamKind::Bias) => {
            for v in values.iter_mut() {
                *v = rng.gen_range(-1.5f32..1.5);
            }
        }
        _ => {}
    });
    let set = if max_weights { AlphabetSet::a8() } else { set };
    project_and_compile(net, bits, set)
}

/// Projects every weight of `net` onto `set`'s lattice under a spec
/// fitted at `bits`, and compiles it.
fn project_and_compile(mut net: Network, bits: u32, set: AlphabetSet) -> FixedNet {
    let spec = QuantSpec::fit(&net, bits);
    let alphabets = LayerAlphabets::uniform(set, spec.layer_formats().len());
    let mut pi = 0;
    net.visit_params_mut(|_, kind, values, _| {
        if kind == ParamKind::Weights {
            let lattice = WeightLattice::new(bits, &alphabets.sets()[pi]);
            constrain_slice(spec.layer_formats()[pi], &lattice, values);
            pi += 1;
        }
    });
    FixedNet::compile(&net, &spec, &alphabets).expect("projected weights compile")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv_pool_stacks_match_the_asm_oracle(
        seed in any::<u64>(),
        k in 1usize..=11,
        in_ch in 1usize..=8,
        out_ch in 1usize..=8,
        half_h in 1usize..=3,
        half_w in 1usize..=3,
        bits in prop_oneof![Just(8u32), Just(12u32), Just(16u32)],
        set in prop_oneof![
            Just(AlphabetSet::a1()),
            Just(AlphabetSet::a2()),
            Just(AlphabetSet::a4()),
            Just(AlphabetSet::a8()),
        ],
        max_weights in any::<bool>(),
        rows in 1usize..4,
    ) {
        let stack = Stack { in_ch, out_ch, k, oh: 2 * half_h, ow: 2 * half_w };
        let fixed = compile(stack, bits, set, max_weights, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0DE);
        // Row 0 saturates every pixel, so maximum weights meet maximum
        // inputs and the conv accumulators leave `i32`.
        let batch: Vec<Vec<f32>> = (0..rows)
            .map(|r| {
                (0..stack.in_len())
                    .map(|_| if r == 0 { 1.0 } else { rng.gen_range(0.0f32..1.0) })
                    .collect()
            })
            .collect();
        let oracle: Vec<Vec<i64>> = batch.iter().map(|x| fixed.infer_raw(x)).collect();
        for plan in [
            ShardPlan::Sequential,
            ShardPlan::Rows { workers: 2 },
            ShardPlan::Rows { workers: 3 },
        ] {
            prop_assert_eq!(&fixed.run(&batch, plan), &oracle, "{:?} {:?} bits={}", stack, plan, bits);
        }
    }
}

/// The chunk bound inside a conv: 16-bit maximum weights fed maximum
/// inputs allow two products per `i32` run, while each position's fan-in
/// is 50 — a single `i32` sum would overflow 25× over.
#[test]
fn sixteen_bit_conv_fan_in_crosses_the_chunk_bound() {
    let stack = Stack {
        in_ch: 2,
        out_ch: 3,
        k: 5,
        oh: 2,
        ow: 4,
    };
    let fixed = compile(stack, 16, AlphabetSet::a8(), true, 7);
    let x = vec![1.0f32; stack.in_len()];
    let want = vec![fixed.infer_raw(&x); 2];
    for plan in [ShardPlan::Sequential, ShardPlan::Rows { workers: 2 }] {
        assert_eq!(fixed.run(&[&x, &x], plan), want, "{plan:?}");
    }
}

/// The shape of a conv → pool → sigmoid → conv → pool → sigmoid → dense
/// stack.
#[derive(Clone, Copy, Debug)]
struct TwoConv {
    in_ch: usize,
    k1: usize,
    mid_ch: usize,
    k2: usize,
    out_ch: usize,
    /// Second conv output height and width (even, so the pool tiles
    /// them).
    oh: usize,
    ow: usize,
}

impl TwoConv {
    /// First conv output height and width: twice the second conv's
    /// input.
    fn first_out(&self) -> (usize, usize) {
        (2 * (self.oh + self.k2 - 1), 2 * (self.ow + self.k2 - 1))
    }

    fn in_len(&self) -> usize {
        let (h, w) = self.first_out();
        self.in_ch * (h + self.k1 - 1) * (w + self.k1 - 1)
    }

    /// Each conv's im2col column buffer length (before its slack): one
    /// row per output position, each fan-in padded to 16 lanes.
    fn column_lens(&self) -> (usize, usize) {
        let (h, w) = self.first_out();
        let padded = |fan: usize| fan.div_ceil(16) * 16;
        (
            h * w * padded(self.in_ch * self.k1 * self.k1),
            self.oh * self.ow * padded(self.mid_ch * self.k2 * self.k2),
        )
    }

    fn network(&self, rng: &mut SmallRng) -> Network {
        let TwoConv {
            in_ch,
            k1,
            mid_ch,
            k2,
            out_ch,
            oh,
            ow,
        } = *self;
        let sig = || Layer::Activation(ActivationLayer::new(Activation::Sigmoid));
        let (h, w) = self.first_out();
        Network::new(vec![
            Layer::Conv2d(Conv2d::new(in_ch, mid_ch, k1, h + k1 - 1, w + k1 - 1, rng)),
            Layer::ScaledAvgPool(ScaledAvgPool::new(mid_ch, h, w)),
            sig(),
            Layer::Conv2d(Conv2d::new(mid_ch, out_ch, k2, h / 2, w / 2, rng)),
            Layer::ScaledAvgPool(ScaledAvgPool::new(out_ch, oh, ow)),
            sig(),
            Layer::Dense(Dense::new(out_ch * oh / 2 * ow / 2, 3, rng)),
        ])
    }
}

/// Two-conv stacks through `run` equal `infer_raw` row by row, under
/// every shard plan, for batches of distinct rows whose sizes leave
/// shards of unequal length. The second conv's column buffer is larger
/// than the first's in one stack (a buffer left at the first conv's
/// size would be too short) and smaller in the others (its rows then
/// hold what the first conv wrote, which im2col must overwrite).
#[test]
fn two_conv_stacks_match_the_asm_oracle() {
    let stacks = [
        (
            TwoConv {
                in_ch: 1,
                k1: 1,
                mid_ch: 32,
                k2: 5,
                out_ch: 3,
                oh: 2,
                ow: 4,
            },
            8,
            AlphabetSet::a1(),
        ),
        (
            TwoConv {
                in_ch: 3,
                k1: 5,
                mid_ch: 4,
                k2: 3,
                out_ch: 5,
                oh: 2,
                ow: 2,
            },
            12,
            AlphabetSet::a2(),
        ),
        (
            TwoConv {
                in_ch: 2,
                k1: 9,
                mid_ch: 6,
                k2: 2,
                out_ch: 2,
                oh: 4,
                ow: 2,
            },
            12,
            AlphabetSet::a4(),
        ),
    ];
    let (first, second) = stacks[0].0.column_lens();
    assert!(second > first, "{second} > {first}");
    for (stack, _, _) in &stacks[1..] {
        let (first, second) = stack.column_lens();
        assert!(second < first, "{stack:?}: {second} < {first}");
    }
    for (i, (stack, bits, set)) in stacks.into_iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(0x2C0 + i as u64);
        let mut net = stack.network(&mut rng);
        net.visit_params_mut(|layer, kind, values, _| {
            if matches!(
                (layer, kind),
                (1 | 4, ParamKind::Weights) | (_, ParamKind::Bias)
            ) {
                for v in values.iter_mut() {
                    *v = rng.gen_range(-1.5f32..1.5);
                }
            }
        });
        let fixed = project_and_compile(net, bits, set);
        for rows in [0usize, 1, 2, 3, 5, 17] {
            let batch: Vec<Vec<f32>> = (0..rows)
                .map(|_| {
                    (0..stack.in_len())
                        .map(|_| rng.gen_range(0.0f32..1.0))
                        .collect()
                })
                .collect();
            let oracle: Vec<Vec<i64>> = batch.iter().map(|x| fixed.infer_raw(x)).collect();
            for plan in [
                ShardPlan::Sequential,
                ShardPlan::Rows { workers: 2 },
                ShardPlan::Rows { workers: 3 },
            ] {
                assert_eq!(
                    fixed.run(&batch, plan),
                    oracle,
                    "{stack:?} bits={bits} rows={rows} {plan:?}"
                );
            }
        }
    }
}
