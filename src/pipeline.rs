//! The typed-stage pipeline: the paper's methodology as an API.
//!
//! Each stage is a concrete struct, so invalid orderings are
//! unrepresentable at the type level:
//!
//! ```text
//! Pipeline            configuration: source network, word length,
//!   |                 candidate alphabet sets, training data
//!   |-- train() ----------------> TrainedModel   (full Algorithm 2)
//!   |-- train_baseline() -> BaselineModel        (steps 1-2 only)
//!   |       |-- select() -------> TrainedModel   (steps 3-4)
//!   |       '-- retrain(a) -----> TrainedModel   (one assignment)
//!   '-- constrain() ------------> TrainedModel   (projection only)
//!                                      |
//!                                      '-- compile() -> CompiledModel
//!                                                           |-- session()
//!                                                           '-- cost()
//! ```
//!
//! `train` runs the paper's Algorithm 2 end to end; `train_baseline` +
//! `retrain` expose its two halves for sweep-style experiments;
//! `constrain` skips training entirely (Algorithm 1 projection only),
//! which is what the hardware cost experiments need.

use man::alphabet::AlphabetSet;
use man::fixed::{FixedNet, LayerAlphabets, QuantSpec};
use man::train::{
    constrained_retrain, train_unconstrained, Attempt, ConstraintProjector, MethodologyConfig,
};
use man::zoo::Benchmark;
use man_datasets::{Dataset, GenOptions};
use man_nn::network::Network;
use man_par::Parallelism;

use crate::artifact::CompiledModel;
use crate::error::ManError;

/// The train/test split a pipeline trains and evaluates on.
#[derive(Clone, Debug)]
pub struct TrainingData {
    /// Training images (flat pixel vectors).
    pub(crate) train_images: Vec<Vec<f32>>,
    /// Training labels.
    pub(crate) train_labels: Vec<usize>,
    /// Held-out test images.
    pub(crate) test_images: Vec<Vec<f32>>,
    /// Held-out test labels.
    pub(crate) test_labels: Vec<usize>,
}

impl TrainingData {
    /// Builds a split, validating the label counts.
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Config`] if either split is empty or its image
    /// and label counts differ.
    pub fn new(
        train_images: Vec<Vec<f32>>,
        train_labels: Vec<usize>,
        test_images: Vec<Vec<f32>>,
        test_labels: Vec<usize>,
    ) -> Result<Self, ManError> {
        if train_images.is_empty() || test_images.is_empty() {
            return Err(ManError::config(
                "training and test splits must be non-empty",
            ));
        }
        if train_images.len() != train_labels.len() || test_images.len() != test_labels.len() {
            return Err(ManError::config("image/label counts differ"));
        }
        Ok(Self {
            train_images,
            train_labels,
            test_images,
            test_labels,
        })
    }
}

impl From<Dataset> for TrainingData {
    fn from(ds: Dataset) -> Self {
        Self {
            train_images: ds.train_images,
            train_labels: ds.train_labels,
            test_images: ds.test_images,
            test_labels: ds.test_labels,
        }
    }
}

impl From<&Dataset> for TrainingData {
    fn from(ds: &Dataset) -> Self {
        ds.clone().into()
    }
}

enum Source {
    Benchmark(Benchmark),
    Network(Network),
}

/// A registered hyper-parameter override (see [`Pipeline::configure`]).
type ConfigOverride = Box<dyn Fn(&mut MethodologyConfig)>;

/// Stage 0: pipeline configuration. Entry point of the API.
///
/// # Example
///
/// ```no_run
/// use man_repro::{Pipeline, TrainingData};
/// use man_repro::man::alphabet::AlphabetSet;
/// use man_repro::man::zoo::Benchmark;
///
/// # fn main() -> Result<(), man_repro::ManError> {
/// let trained = Pipeline::for_benchmark(Benchmark::Faces)
///     .with_bits(8)
///     .with_alphabets(vec![AlphabetSet::a1(), AlphabetSet::a2(), AlphabetSet::a4()])
///     .train()?;
/// let compiled = trained.compile()?;
/// let _session = compiled.session();
/// # Ok(()) }
/// ```
pub struct Pipeline {
    source: Source,
    bits: Option<u32>,
    candidates: Vec<AlphabetSet>,
    assignment: Option<LayerAlphabets>,
    data: Option<TrainingData>,
    parallelism: Option<Parallelism>,
    overrides: Vec<ConfigOverride>,
}

impl Pipeline {
    /// A pipeline over one of the paper's Table-IV benchmarks: the
    /// network architecture, word length and tuned hyper-parameters come
    /// from the benchmark; a synthetic dataset is generated on `train()`
    /// unless [`Pipeline::with_data`] provides one.
    pub fn for_benchmark(benchmark: Benchmark) -> Self {
        Self {
            source: Source::Benchmark(benchmark),
            bits: None,
            candidates: vec![AlphabetSet::a1(), AlphabetSet::a2(), AlphabetSet::a4()],
            assignment: None,
            data: None,
            parallelism: None,
            overrides: Vec::new(),
        }
    }

    /// A pipeline over a caller-built float network. Training data must
    /// be supplied with [`Pipeline::with_data`] before `train()`.
    pub fn from_network(network: Network) -> Self {
        Self {
            source: Source::Network(network),
            bits: None,
            candidates: vec![AlphabetSet::a1(), AlphabetSet::a2(), AlphabetSet::a4()],
            assignment: None,
            data: None,
            parallelism: None,
            overrides: Vec::new(),
        }
    }

    /// Sets the weight/activation word length (paper: 8 or 12).
    #[must_use]
    pub fn with_bits(mut self, bits: u32) -> Self {
        self.bits = Some(bits);
        self
    }

    /// Sets the candidate alphabet sets Algorithm 2 tries, smallest
    /// first. Defaults to `{1}`, `{1,3}`, `{1,3,5,7}`.
    #[must_use]
    pub fn with_alphabets(mut self, candidates: Vec<AlphabetSet>) -> Self {
        self.candidates = candidates;
        self
    }

    /// Sets an explicit per-layer assignment used by
    /// [`Pipeline::constrain`] (e.g. Section VI-E's mixed networks).
    /// When unset, `constrain()` applies the first candidate uniformly.
    /// Training paths reject a set assignment with [`ManError::Config`]
    /// (retrain an explicit assignment via [`BaselineModel::retrain`]).
    #[must_use]
    pub fn with_assignment(mut self, assignment: LayerAlphabets) -> Self {
        self.assignment = Some(assignment);
        self
    }

    /// Supplies the train/test split.
    #[must_use]
    pub fn with_data(mut self, data: impl Into<TrainingData>) -> Self {
        self.data = Some(data.into());
        self
    }

    /// Sets the worker budget for the methodology's evaluation work:
    /// every accuracy measurement shards its test rows, and
    /// [`Pipeline::train`] retrains candidate alphabet sets
    /// concurrently. All of it drains the process-wide persistent
    /// `man-par` pool (no threads spawned per evaluation), and
    /// [`Parallelism::Auto`] routes each evaluation through the
    /// `man-par` decision table — MACs per row × set size — so tiny
    /// quick-mode sets skip the pool handoff. Results are identical to
    /// the sequential run for every setting — only wall-clock time
    /// changes (SGD itself stays sequential; its update chain is
    /// order-dependent by definition).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Registers a hyper-parameter override applied after the defaults
    /// (and after benchmark tuning); overrides run in registration order.
    #[must_use]
    pub fn configure(mut self, f: impl Fn(&mut MethodologyConfig) + 'static) -> Self {
        self.overrides.push(Box::new(f));
        self
    }

    fn resolve_bits(&self) -> Result<u32, ManError> {
        let bits = self.bits.unwrap_or(match &self.source {
            Source::Benchmark(b) => b.default_bits(),
            Source::Network(_) => 8,
        });
        if !(4..=16).contains(&bits) {
            return Err(ManError::config(format!(
                "word length must be in 4..=16, got {bits}"
            )));
        }
        Ok(bits)
    }

    fn resolve_cfg(&self) -> Result<MethodologyConfig, ManError> {
        let mut cfg = MethodologyConfig::paper();
        cfg.candidates = self.candidates.clone();
        if let Source::Benchmark(b) = &self.source {
            b.tune(&mut cfg);
        }
        if let Some(p) = self.parallelism {
            cfg.parallelism = p;
        }
        for f in &self.overrides {
            f(&mut cfg);
        }
        if cfg.candidates.is_empty() {
            return Err(ManError::config(
                "candidate alphabet list must not be empty",
            ));
        }
        if !(cfg.quality > 0.0 && cfg.quality <= 1.0) {
            return Err(ManError::config(format!(
                "quality constraint must be in (0, 1], got {}",
                cfg.quality
            )));
        }
        // The training loop and `Sgd` assert these; reject them here as
        // typed errors instead of panicking mid-training.
        if cfg.batch_size == 0 {
            return Err(ManError::config("batch_size must be positive"));
        }
        if cfg.lr.is_nan() || cfg.lr <= 0.0 {
            return Err(ManError::config(format!(
                "learning rate must be positive, got {}",
                cfg.lr
            )));
        }
        if !(cfg.retrain_lr_factor > 0.0 && cfg.lr * cfg.retrain_lr_factor > 0.0) {
            return Err(ManError::config(format!(
                "retrain_lr_factor must give a positive retraining rate, got {} x {}",
                cfg.lr, cfg.retrain_lr_factor
            )));
        }
        if !(0.0..1.0).contains(&cfg.momentum) {
            return Err(ManError::config(format!(
                "momentum must be in [0, 1), got {}",
                cfg.momentum
            )));
        }
        if let Some(clip) = cfg.clip_rms.filter(|c| c.is_nan() || *c <= 0.0) {
            return Err(ManError::config(format!(
                "clip_rms must be positive, got {clip}"
            )));
        }
        Ok(cfg)
    }

    /// Runs Algorithm 2 steps 1-2: unconstrained training to saturation,
    /// quantization-spec fitting, and the conventional fixed-point
    /// baseline accuracy `J`.
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Config`] on inconsistent configuration and
    /// [`ManError::Compile`] if the conventional baseline fails to
    /// compile.
    pub fn train_baseline(self) -> Result<BaselineModel, ManError> {
        if self.assignment.is_some() {
            return Err(ManError::config(
                "with_assignment applies to constrain() only; training paths \
                 take candidate sets via with_alphabets, and an explicit \
                 per-layer assignment retrains via BaselineModel::retrain",
            ));
        }
        let bits = self.resolve_bits()?;
        let cfg = self.resolve_cfg()?;
        // The stage owns `self`: move the source and data out instead of
        // cloning (a paper-scale split is tens of megabytes).
        let Pipeline { source, data, .. } = self;
        let (mut network, data) = match (source, data) {
            (Source::Benchmark(b), data) => (
                b.build_network(cfg.seed),
                data.unwrap_or_else(|| b.dataset(&GenOptions::quick(cfg.seed)).into()),
            ),
            (Source::Network(net), Some(data)) => (net, data),
            (Source::Network(_), None) => {
                return Err(ManError::config(
                    "a network pipeline needs training data (use with_data)",
                ))
            }
        };
        train_unconstrained(&mut network, &data.train_images, &data.train_labels, &cfg);
        let float_accuracy =
            network.accuracy_par(&data.test_images, &data.test_labels, cfg.parallelism);
        let spec = QuantSpec::fit(&network, bits);
        let layers = spec.layer_formats().len();
        let conventional = FixedNet::compile(
            &network,
            &spec,
            &LayerAlphabets::uniform(AlphabetSet::a8(), layers),
        )?;
        let conventional_accuracy =
            conventional.accuracy_par(&data.test_images, &data.test_labels, cfg.parallelism);
        Ok(BaselineModel {
            network,
            spec,
            cfg,
            data,
            float_accuracy,
            conventional_accuracy,
        })
    }

    /// Runs the complete Algorithm 2: [`Pipeline::train_baseline`], then
    /// constrained retraining over the candidate sets, smallest first. The
    /// first set whose accuracy `K` satisfies `K >= J * quality` is kept;
    /// if none does, the best-`K` one is kept and
    /// [`TrainedModel::accepted`] reports `false`. Parallel and
    /// sequential runs report the same attempts and keep the same model.
    ///
    /// # Errors
    ///
    /// Propagates stage failures as [`ManError`].
    pub fn train(self) -> Result<TrainedModel, ManError> {
        self.train_baseline()?.select()
    }

    /// Skips training entirely: fits the quantization spec on the source
    /// network as-is and projects its weights onto the constrained
    /// lattice (Algorithm 1 only). Uses the assignment from
    /// [`Pipeline::with_assignment`], or the first candidate set applied
    /// uniformly.
    ///
    /// This is the fast path for hardware cost studies and tests that
    /// need a *valid* constrained network without caring about accuracy.
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Config`] on inconsistent configuration (e.g.
    /// an assignment whose length does not match the network).
    pub fn constrain(self) -> Result<TrainedModel, ManError> {
        let bits = self.resolve_bits()?;
        let mut cfg = self.resolve_cfg()?;
        let Pipeline {
            source, assignment, ..
        } = self;
        let network = match source {
            Source::Benchmark(b) => b.build_network(cfg.seed),
            Source::Network(net) => net,
        };
        let spec = QuantSpec::fit(&network, bits);
        let layers = spec.layer_formats().len();
        let alphabets = match assignment {
            Some(a) => {
                if a.len() != layers {
                    return Err(ManError::config(format!(
                        "assignment covers {} layers but the network has {layers}",
                        a.len()
                    )));
                }
                a
            }
            None => LayerAlphabets::uniform(cfg.candidates.swap_remove(0), layers),
        };
        let mut constrained = network;
        // Algorithm 1 across the network: the same projector retraining
        // applies after every optimizer step.
        ConstraintProjector::new(&spec, &alphabets).project(&mut constrained);
        Ok(TrainedModel {
            network: constrained,
            spec,
            alphabets,
            attempts: Vec::new(),
            selected: None,
            float_accuracy: None,
            conventional_accuracy: None,
        })
    }
}

/// Stage 1a: the unconstrained trained network plus the frozen
/// quantization spec and the conventional baseline accuracy `J`
/// (Algorithm 2 steps 1-2).
#[derive(Debug)]
pub struct BaselineModel {
    network: Network,
    spec: QuantSpec,
    cfg: MethodologyConfig,
    data: TrainingData,
    /// Float test accuracy after unconstrained training.
    pub float_accuracy: f64,
    /// Conventional fixed-point accuracy `J` (exact multiplier).
    pub conventional_accuracy: f64,
}

impl BaselineModel {
    /// The trained (unconstrained) float network — the restore point.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The frozen quantization spec.
    pub fn spec(&self) -> &QuantSpec {
        &self.spec
    }

    /// Constrained-retrains one explicit per-layer assignment from the
    /// restore point (Algorithm 2 step 3 for a single configuration) and
    /// measures its fixed-point accuracy `K` under the configured
    /// [`Pipeline::with_parallelism`] setting (the result is the same for
    /// every setting).
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Config`] if the assignment length does not
    /// match the network, or [`ManError::Compile`] if the retrained
    /// network fails to compile (it cannot, unless the projection is
    /// bypassed).
    pub fn retrain(&self, alphabets: &LayerAlphabets) -> Result<TrainedModel, ManError> {
        let layers = self.spec.layer_formats().len();
        if alphabets.len() != layers {
            return Err(ManError::config(format!(
                "assignment covers {} layers but the network has {layers}",
                alphabets.len()
            )));
        }
        let candidate = constrained_retrain(
            &self.network,
            &self.spec,
            alphabets,
            &self.data.train_images,
            &self.data.train_labels,
            &self.cfg,
        );
        let fixed = FixedNet::compile(&candidate, &self.spec, alphabets)?;
        let k = fixed.accuracy_par(
            &self.data.test_images,
            &self.data.test_labels,
            self.cfg.parallelism,
        );
        let j = self.conventional_accuracy;
        let accepted = k >= j * self.cfg.quality;
        Ok(TrainedModel {
            network: candidate,
            spec: self.spec.clone(),
            alphabets: alphabets.clone(),
            attempts: vec![Attempt {
                label: alphabets.label(),
                accuracy: k,
                loss_pp: (j - k) * 100.0,
                accepted,
            }],
            selected: accepted.then_some(0),
            float_accuracy: Some(self.float_accuracy),
            conventional_accuracy: Some(j),
        })
    }

    /// Runs Algorithm 2 steps 3-4: constrained retraining over the
    /// candidate sets, smallest first, accepting the first whose
    /// accuracy `K` satisfies `K >= J * quality`. If no candidate is
    /// accepted, the best-scoring one is kept and
    /// [`TrainedModel::accepted`] reports `false`.
    ///
    /// On a parallel configuration ([`Pipeline::with_parallelism`]) the
    /// candidates retrain concurrently — each retraining is independent
    /// and seeded per-candidate, so every per-candidate result is
    /// identical to the sequential run — and the attempt log is then
    /// truncated at the first accepted set. The selected model *and* the
    /// reported attempts therefore match the sequential algorithm
    /// exactly; the speculative extra retrains only cost core-time.
    ///
    /// # Errors
    ///
    /// Propagates retraining/compile failures as [`ManError`].
    pub(crate) fn select(self) -> Result<TrainedModel, ManError> {
        let candidates = self.cfg.candidates.clone();
        let layers = self.spec.layer_formats().len();
        let workers = self.cfg.parallelism.workers().min(candidates.len());
        let mut evaluated: Vec<TrainedModel> = Vec::new();
        if workers > 1 {
            // Walk the speculative results in candidate order, stopping —
            // exactly like the sequential loop — at the first accepted
            // set. An `Err` from a candidate *past* that point is a
            // candidate Algorithm 2 would never have evaluated, so it
            // must not surface; an `Err` at or before it is one the
            // sequential run would have hit, and propagates. Each
            // candidate's accuracy evaluation nests on the same pool,
            // whose fixed size bounds the threads.
            for result in man_par::parallel_map(self.cfg.parallelism, candidates.len(), |i| {
                self.retrain(&LayerAlphabets::uniform(candidates[i].clone(), layers))
            }) {
                let one = result?;
                let accepted = one.attempts.first().is_some_and(|a| a.accepted);
                evaluated.push(one);
                if accepted {
                    break; // Algorithm 2 would have stopped here.
                }
            }
        } else {
            for set in &candidates {
                let one = self.retrain(&LayerAlphabets::uniform(set.clone(), layers))?;
                let accepted = one.attempts.first().is_some_and(|a| a.accepted);
                evaluated.push(one);
                if accepted {
                    break; // Algorithm 2: "end the training".
                }
            }
        }
        let mut attempts: Vec<Attempt> = Vec::new();
        let mut models: Vec<(Network, LayerAlphabets)> = Vec::new();
        let mut selected = None;
        for (idx, one) in evaluated.into_iter().enumerate() {
            let attempt = one
                .attempts
                .into_iter()
                .next()
                .expect("retrain records one attempt");
            if attempt.accepted && selected.is_none() {
                selected = Some(idx);
            }
            attempts.push(attempt);
            models.push((one.network, one.alphabets));
        }
        // Fall back on the best-K attempt when nothing met the bar.
        let chosen = selected.unwrap_or_else(|| {
            attempts
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    a.accuracy
                        .partial_cmp(&b.accuracy)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i)
                .expect("at least one candidate was attempted")
        });
        let (network, alphabets) = models.swap_remove(chosen);
        Ok(TrainedModel {
            network,
            spec: self.spec,
            alphabets,
            attempts,
            selected,
            float_accuracy: Some(self.float_accuracy),
            conventional_accuracy: Some(self.conventional_accuracy),
        })
    }
}

/// Stage 1b: a constrained network on the alphabet lattice, ready to
/// compile.
#[derive(Debug)]
pub struct TrainedModel {
    network: Network,
    spec: QuantSpec,
    alphabets: LayerAlphabets,
    /// Every attempted configuration, in Algorithm-2 order (empty for
    /// the projection-only [`Pipeline::constrain`] path).
    pub attempts: Vec<Attempt>,
    /// Index into `attempts` of the configuration that met the quality
    /// constraint, if any did.
    pub selected: Option<usize>,
    /// Float accuracy of the unconstrained restore point (when trained).
    pub float_accuracy: Option<f64>,
    /// Conventional fixed-point baseline `J` (when trained).
    pub conventional_accuracy: Option<f64>,
}

impl TrainedModel {
    /// The constrained float network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The per-layer alphabet assignment the model is constrained to.
    pub fn alphabets(&self) -> &LayerAlphabets {
        &self.alphabets
    }

    /// `true` if a candidate met the Algorithm-2 quality constraint.
    pub fn accepted(&self) -> bool {
        self.selected.is_some()
    }

    /// Stage 2: compiles the constrained network onto the bit-accurate
    /// fixed-point ASM datapath.
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Compile`] if any weight is off-lattice — only
    /// possible when the network was mutated outside the pipeline.
    pub fn compile(&self) -> Result<CompiledModel, ManError> {
        CompiledModel::from_parts(
            self.network.clone(),
            self.spec.clone(),
            self.alphabets.clone(),
        )
    }
}
