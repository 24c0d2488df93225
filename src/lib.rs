//! **man-repro** — the top-level API of the MAN (Multiplier-less
//! Artificial Neuron) reproduction.
//!
//! The paper's contribution is a *methodology*: train a float network,
//! constrain its weights onto the alphabet lattice (Algorithm 1), retrain
//! under the constraint (Algorithm 2), compile onto the fixed-point ASM
//! datapath, and measure the hardware cost. This crate packages that
//! methodology as a typed-stage pipeline in which each stage is a
//! concrete struct, so invalid orderings are unrepresentable:
//!
//! ```text
//! Pipeline -> TrainedModel -> CompiledModel -> CostedModel
//!                                  |-> InferenceSession (serving)
//!                                  '-> save()/load()    (one-file artifact)
//! ```
//!
//! * [`Pipeline`] — configure a benchmark or custom network, word
//!   length, candidate alphabet sets and data; `train()` runs the full
//!   Algorithm 2, `train_baseline()`/`retrain()` expose its halves for
//!   sweeps, `constrain()` projects without training.
//! * [`TrainedModel`] — a constrained network plus the attempt log.
//! * [`CompiledModel`] — the bit-accurate engine; [`CompiledModel::save`]
//!   / [`CompiledModel::load`] bundle network + quantization spec +
//!   alphabet assignment into a single JSON artifact that reloads to
//!   bit-identical inference.
//! * [`InferenceSession`] — batched serving through the exact-integer
//!   MAC path; [`Prediction`] carries argmax and raw scores. Every entry
//!   point (`infer` / `infer_batch`) takes `&self`, so one session is
//!   drivable from many threads — the contract the `man-serve` runtime
//!   builds its micro-batching scheduler on.
//! * [`Parallelism`] — the deterministic parallel batch engine
//!   (`man-par`): `session.with_parallelism(Parallelism::Auto)` shards
//!   batch rows across cores with bit-identical results by
//!   construction; a lone row runs on the caller. Threads come from one
//!   process-lifetime pool of parked workers behind
//!   [`man_par::parallel_map`] (no per-call spawning).
//!   [`Parallelism::plan`] is the one place a batch's [`ShardPlan`] is
//!   resolved; under `Auto` it picks the worker count from
//!   compile-time MACs/row and batch size (DESIGN.md §8–§9).
//! * [`ManError`] — one `Result`-first error taxonomy wrapping the
//!   member crates' typed errors, including the serving-runtime
//!   [`ServeError`] variants.
//!
//! See `DESIGN.md` at the repository root for the full system inventory,
//! and the member crates (re-exported below) for the underlying pieces.
//!
//! # Example
//!
//! ```no_run
//! use man_repro::{ManError, Pipeline};
//! use man_repro::man::zoo::Benchmark;
//!
//! fn main() -> Result<(), ManError> {
//!     let compiled = Pipeline::for_benchmark(Benchmark::Faces)
//!         .with_bits(8)
//!         .train()?      // Algorithm 2
//!         .compile()?;   // fixed-point ASM datapath
//!     compiled.save("faces.man.json")?;
//!     let session = CompiledModel::load("faces.man.json")?.session();
//!     # let pixels = vec![0.0f32; 1024];
//!     let prediction = session.infer(&pixels)?;
//!     println!("class {}", prediction.class);
//!     Ok(())
//! }
//! # use man_repro::CompiledModel;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use man;
pub use man_datasets;
pub use man_fixed;
pub use man_hw;
pub use man_nn;
pub use man_par;

mod artifact;
mod error;
mod pipeline;
mod session;

pub use artifact::{CompiledModel, CostedModel};
pub use error::{ManError, ServeError};
pub use man_par::{Parallelism, ShardPlan};
pub use pipeline::{BaselineModel, Pipeline, TrainedModel, TrainingData};
pub use session::{InferenceSession, Prediction, SessionStats};
