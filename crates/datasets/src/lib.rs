//! Synthetic benchmark generators for the MAN reproduction.
//!
//! The paper evaluates on MNIST, YUV-Faces, SVHN and the Tilburg character
//! set (TICH) — datasets we substitute with procedural generators that
//! preserve what the experiments actually exercise: 32×32 grayscale inputs
//! (1024 input neurons, matching Table IV's synapse counts), the same
//! output arities (10 / 2 / 10 / 36 classes), and the same difficulty
//! ordering (digits < faces < SVHN-like < TICH-like). See DESIGN.md §2 for
//! the substitution rationale.
//!
//! # Example
//!
//! ```
//! use man_datasets::{generators, GenOptions};
//!
//! let ds = generators::digits(&GenOptions { train: 100, test: 20, seed: 7 });
//! assert_eq!(ds.classes, 10);
//! assert_eq!(ds.train_images[0].len(), 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
pub mod generators;
mod glyph;
mod render;

pub use dataset::{Dataset, GenOptions};
