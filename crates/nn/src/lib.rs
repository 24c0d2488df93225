//! Neural-network substrate for the MAN reproduction: the training side of
//! the paper's methodology.
//!
//! The paper trains multilayer perceptrons and a LeNet-style CNN with
//! modified open-source toolboxes; this crate provides the equivalent from
//! scratch — layers with backpropagation ([`layers`]), losses ([`loss`]),
//! SGD with momentum ([`optim`]), a training loop with a per-step weight
//! projection hook ([`train`]) through which the `man` crate imposes the
//! alphabet constraint, and the [`network::Network`] container whose
//! enum-based layer stack the fixed-point inference engine can replay
//! bit-accurately.
//!
//! Training and inference are batch-major: a minibatch travels through
//! the layers as one row-major `[rows][dim]` buffer
//! ([`network::Network::accumulate_batch`]), and inference runs the same
//! `&self` forward pass over blocks of rows. Weights only change between
//! minibatches and every row keeps the operation order of a one-row pass,
//! so losses, gradients and trained parameters are bit-identical for any
//! grouping of rows into batches.
//!
//! # Example
//!
//! ```
//! use man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
//! use man_nn::network::Network;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let net = Network::new(vec![
//!     Layer::Dense(Dense::new(1024, 100, &mut rng)),
//!     Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
//!     Layer::Dense(Dense::new(100, 10, &mut rng)),
//! ]);
//! // The paper's Table IV digit-recognition MLP: 103,510 synapses.
//! assert_eq!(net.param_count(), 103_510);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod loss;
pub mod network;
pub mod optim;
pub mod train;
