//! Stage 2-3 of the pipeline: the compiled model, its single-file
//! artifact format, and the hardware-cost stage.
//!
//! # Artifact format
//!
//! [`CompiledModel::save`] writes **one** JSON document bundling
//! everything needed to rebuild bit-identical inference:
//!
//! ```json
//! {
//!   "format": "man-compiled-model",
//!   "version": 1,
//!   "bits": 8,
//!   "network":   { ... },   // constrained float weights (man-nn Network)
//!   "spec":      { ... },   // frozen QuantSpec (word length + per-layer formats)
//!   "alphabets": { ... }    // per-layer alphabet assignment
//! }
//! ```
//!
//! [`CompiledModel::load`] validates the format tag and version, then
//! *recompiles* the network — so a tampered artifact whose weights left
//! the lattice is rejected with [`ManError::Compile`] instead of
//! silently mis-multiplying.

use std::path::Path;
use std::sync::Arc;

use man::engine::{kinds_conventional, kinds_from_alphabets, CostModel, CostReport};
use man::fixed::{FixedNet, LayerAlphabets, QuantSpec};
use man_hw::neuron::NeuronKind;
use man_nn::network::Network;
use serde::{Deserialize, Serialize};

use crate::error::ManError;
use crate::session::InferenceSession;

/// The artifact format tag.
pub(crate) const ARTIFACT_FORMAT: &str = "man-compiled-model";
/// The current artifact version.
pub(crate) const ARTIFACT_VERSION: u32 = 1;

#[derive(Serialize, Deserialize)]
struct Artifact {
    format: String,
    version: u32,
    bits: u32,
    network: Network,
    spec: QuantSpec,
    alphabets: LayerAlphabets,
}

/// Stage 2: a constrained network compiled onto the fixed-point ASM
/// datapath, plus everything needed to persist and redeploy it.
#[derive(Clone, Debug)]
pub struct CompiledModel {
    network: Network,
    spec: QuantSpec,
    alphabets: LayerAlphabets,
    // Shared with every InferenceSession the model opens, so opening a
    // session never copies the compiled weights/plans.
    fixed: Arc<FixedNet>,
}

impl CompiledModel {
    /// Compiles a constrained network under a spec and assignment.
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Compile`] on architecture or lattice
    /// violations.
    pub fn from_parts(
        network: Network,
        spec: QuantSpec,
        alphabets: LayerAlphabets,
    ) -> Result<Self, ManError> {
        let fixed = Arc::new(FixedNet::compile(&network, &spec, &alphabets)?);
        Ok(Self {
            network,
            spec,
            alphabets,
            fixed,
        })
    }

    /// The bit-accurate fixed-point engine.
    pub fn fixed(&self) -> &FixedNet {
        &self.fixed
    }

    /// The engine behind a shared handle — what sessions hold.
    pub(crate) fn fixed_shared(&self) -> Arc<FixedNet> {
        Arc::clone(&self.fixed)
    }

    /// The frozen quantization spec.
    pub fn spec(&self) -> &QuantSpec {
        &self.spec
    }

    /// The per-layer alphabet assignment.
    pub fn alphabets(&self) -> &LayerAlphabets {
        &self.alphabets
    }

    /// Word length.
    pub fn bits(&self) -> u32 {
        self.spec.bits()
    }

    /// Multiply-accumulate operations one inference costs, recorded at
    /// compile time — the work measure the [`Parallelism::Auto`] tuner
    /// plans batches with (see [`Parallelism::plan`]).
    ///
    /// [`Parallelism::Auto`]: man_par::Parallelism::Auto
    /// [`Parallelism::plan`]: man_par::Parallelism::plan
    pub fn macs_per_inference(&self) -> u64 {
        self.fixed.macs_per_inference()
    }

    /// Classification accuracy of the fixed-point engine over a set.
    pub fn accuracy(&self, images: &[Vec<f32>], labels: &[usize]) -> f64 {
        self.fixed.accuracy(images, labels)
    }

    /// Opens a batched inference session over this model.
    pub fn session(&self) -> InferenceSession {
        InferenceSession::new(self)
    }

    /// Renders the single-file artifact as JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Artifact`] if serialization fails.
    pub fn to_json(&self) -> Result<String, ManError> {
        let artifact = Artifact {
            format: ARTIFACT_FORMAT.to_owned(),
            version: ARTIFACT_VERSION,
            bits: self.spec.bits(),
            network: self.network.clone(),
            spec: self.spec.clone(),
            alphabets: self.alphabets.clone(),
        };
        Ok(serde_json::to_string(&artifact)?)
    }

    /// Rebuilds a model from artifact JSON, revalidating everything.
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Artifact`] on malformed JSON, a wrong format
    /// tag, an unsupported version or an empty assignment, and
    /// [`ManError::Compile`] if the weights are off-lattice.
    pub fn from_json(json: &str) -> Result<Self, ManError> {
        let artifact: Artifact = serde_json::from_str(json)?;
        if artifact.format != ARTIFACT_FORMAT {
            return Err(ManError::artifact(format!(
                "not a {ARTIFACT_FORMAT} artifact (format tag `{}`)",
                artifact.format
            )));
        }
        if artifact.version != ARTIFACT_VERSION {
            return Err(ManError::artifact(format!(
                "unsupported artifact version {} (supported: {ARTIFACT_VERSION})",
                artifact.version
            )));
        }
        if artifact.alphabets.is_empty() {
            return Err(ManError::artifact(
                "artifact holds an empty alphabet assignment",
            ));
        }
        if artifact.bits != artifact.spec.bits() {
            return Err(ManError::artifact(format!(
                "artifact bits field ({}) disagrees with its spec ({})",
                artifact.bits,
                artifact.spec.bits()
            )));
        }
        Self::from_parts(artifact.network, artifact.spec, artifact.alphabets)
    }

    /// Saves the single-file artifact.
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ManError> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Loads and revalidates a single-file artifact.
    ///
    /// # Errors
    ///
    /// As [`CompiledModel::from_json`], plus [`ManError::Io`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ManError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// Stage 3: measures cycles / energy / power / area of this model on
    /// the paper's 4-lane processing engine, driving the gate-level
    /// datapaths with real operand traces sampled from `sample_images`.
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Config`] if the samples are too few to
    /// exercise every layer, and [`ManError::TimingClosure`] if a
    /// datapath cannot close timing at the iso-speed clock.
    pub fn cost(
        &self,
        model: &mut CostModel,
        sample_images: &[Vec<f32>],
    ) -> Result<CostedModel, ManError> {
        let kinds = kinds_from_alphabets(&self.alphabets);
        let label = self.alphabets.label();
        self.cost_as(model, sample_images, kinds, label)
    }

    /// Like [`CompiledModel::cost`], but measures the network on
    /// *conventional* exact-multiplier neurons — the paper's baseline
    /// datapath. The model must be compiled under the full alphabet set
    /// for the comparison to make sense.
    ///
    /// # Errors
    ///
    /// As [`CompiledModel::cost`].
    pub fn cost_conventional(
        &self,
        model: &mut CostModel,
        sample_images: &[Vec<f32>],
    ) -> Result<CostedModel, ManError> {
        let kinds = kinds_conventional(self.fixed.layer_count());
        self.cost_as(model, sample_images, kinds, "conventional".to_owned())
    }

    fn cost_as(
        &self,
        model: &mut CostModel,
        sample_images: &[Vec<f32>],
        kinds: Vec<NeuronKind>,
        label: String,
    ) -> Result<CostedModel, ManError> {
        if sample_images.is_empty() {
            return Err(ManError::config("cost() needs at least one sample image"));
        }
        let traces = self.fixed.sample_traces(sample_images, model.stream_limit);
        if traces.iter().any(|t| t.len() < 2) {
            return Err(ManError::config(
                "operand traces too short to measure energy (provide more samples)",
            ));
        }
        let report = model.network_cost(&self.fixed, &kinds, &traces, label)?;
        Ok(CostedModel { report })
    }
}

/// Stage 3: a compiled model's measured hardware cost.
#[derive(Clone, Debug)]
pub struct CostedModel {
    /// Cycles, energy, power and area per inference.
    pub report: CostReport,
}
