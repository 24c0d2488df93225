//! The model registry: named [`ModelHost`]s and hot load/reload/unload.
//! In-process callers use the registry directly; it answers the same
//! `predict` / `load` / `unload` / `stats` operations the wire protocol
//! speaks.
//!
//! Routing is name-based: a `predict` resolves its model under a short
//! read lock, clones the host's `Arc`, and submits outside the lock — so
//! inference never serializes on the registry, and a reload swaps the
//! `Arc` atomically while in-flight requests drain on the old host
//! (which then answers what is still queued and refuses new work).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

use man_repro::{CompiledModel, ManError, Prediction, ServeError};

use crate::batcher::{BatchConfig, ModelHost};
use crate::metrics::ModelStats;

/// Summary of a loaded model, returned by `load` and used by the wire
/// protocol's `load` response.
#[derive(Clone, Debug)]
pub struct ModelInfo {
    /// Registry name.
    pub model: String,
    /// Word length of the compiled engine.
    pub bits: u32,
    /// Values each input must hold.
    pub input_len: usize,
    /// Parameterized layers.
    pub(crate) layers: usize,
    /// Alphabet assignment label (e.g. `"1 {1}"`).
    pub alphabets: String,
}

fn info_of(name: &str, model: &CompiledModel) -> ModelInfo {
    ModelInfo {
        model: name.to_owned(),
        bits: model.bits(),
        input_len: model.fixed().input_len(),
        layers: model.fixed().layer_count(),
        alphabets: model.alphabets().label(),
    }
}

/// A concurrent registry of named, scheduler-backed models.
///
/// # Example
///
/// Compile a tiny network onto the MAN lattice, install it, and serve
/// it in-process:
///
/// ```
/// use man::alphabet::AlphabetSet;
/// use man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
/// use man_nn::network::Network;
/// use man_serve::{BatchConfig, ModelRegistry};
/// use man_repro::Pipeline;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), man_serve::ManError> {
/// let mut rng = SmallRng::seed_from_u64(7);
/// let net = Network::new(vec![
///     Layer::Dense(Dense::new(8, 6, &mut rng)),
///     Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
///     Layer::Dense(Dense::new(6, 4, &mut rng)),
/// ]);
/// let model = Pipeline::from_network(net)
///     .with_bits(8)
///     .with_alphabets(vec![AlphabetSet::a2()])
///     .constrain()?
///     .compile()?;
///
/// let registry = ModelRegistry::new(BatchConfig::default());
/// registry.install("tiny", model);
///
/// let p = registry.predict("tiny", vec![0.5; 8])?;
/// assert!(p.class < 4, "4 output neurons -> class in 0..4");
/// registry.shutdown();
/// # Ok(()) }
/// ```
pub struct ModelRegistry {
    // BTreeMap, not HashMap: iteration order is the name order, so
    // `names()` and `stats(None)` are byte-deterministic without a
    // post-hoc sort — the NDJSON stats stream never reshuffles between
    // identical snapshots.
    hosts: RwLock<BTreeMap<String, Arc<ModelHost>>>,
    config: BatchConfig,
}

impl ModelRegistry {
    /// An empty registry whose models are scheduled with `config`.
    pub fn new(config: BatchConfig) -> Arc<Self> {
        Arc::new(Self {
            hosts: RwLock::new(BTreeMap::new()),
            config,
        })
    }

    /// An empty registry with the default scheduler configuration.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(BatchConfig::default())
    }

    /// The scheduler configuration new models are hosted with.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    fn host(&self, model: &str) -> Result<Arc<ModelHost>, ManError> {
        self.hosts
            .read()
            .expect("registry lock poisoned")
            .get(model)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel(model.to_owned()).into())
    }

    /// Installs (or hot-reloads) an already-compiled model under `name`.
    /// An existing host with that name keeps serving until the swap, then
    /// drains its queue and shuts down.
    pub fn install(&self, name: impl Into<String>, model: CompiledModel) -> ModelInfo {
        let name = name.into();
        let info = info_of(&name, &model);
        let host = Arc::new(ModelHost::new(name.clone(), &model, &self.config));
        let old = self
            .hosts
            .write()
            .expect("registry lock poisoned")
            .insert(name, host);
        if let Some(old) = old {
            // Outside the write lock: draining the old queue must not
            // block routing.
            old.stop();
        }
        info
    }

    /// Loads (or hot-reloads) a `CompiledModel` artifact from disk and
    /// installs it under `name`.
    ///
    /// # Errors
    ///
    /// Everything [`CompiledModel::load`] reports: [`ManError::Io`],
    /// [`ManError::Artifact`], [`ManError::Compile`].
    pub fn load_file(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<ModelInfo, ManError> {
        Ok(self.install(name, CompiledModel::load(path)?))
    }

    /// Evicts a model: removes it from routing, then answers every
    /// request still queued for it before returning.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if nothing is loaded under `name`.
    pub fn unload(&self, model: &str) -> Result<(), ManError> {
        let host = self
            .hosts
            .write()
            .expect("registry lock poisoned")
            .remove(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_owned()))?;
        host.stop();
        Ok(())
    }

    /// Routes one request to a model's scheduler and waits for the
    /// prediction.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`], [`ManError::Shape`],
    /// [`ServeError::Overloaded`], [`ServeError::Timeout`] — the full
    /// backpressure-aware contract of `ModelHost::submit`.
    pub fn predict(&self, model: &str, input: Vec<f32>) -> Result<Prediction, ManError> {
        self.host(model)?.submit(input)
    }

    /// The loaded model names, sorted (the map's native key order).
    pub fn names(&self) -> Vec<String> {
        self.hosts
            .read()
            .expect("registry lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Stats snapshots: every model, or just `model` when given.
    ///
    /// The snapshots are taken *while holding the registry's read lock*,
    /// so they are consistent with routing: an `unload`/`install` (which
    /// need the write lock) cannot complete in between, and `stats`
    /// never reports a model that has already been evicted and drained.
    /// The previous implementation cloned the host `Arc`s, released the
    /// lock, and only then read the counters — leaving a window in which
    /// a concurrent unload finished and the reply described a host that
    /// no longer existed, with a mid-drain queue depth to match.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] when `model` names nothing.
    pub fn stats(&self, model: Option<&str>) -> Result<Vec<ModelStats>, ManError> {
        let hosts = self.hosts.read().expect("registry lock poisoned");
        match model {
            Some(name) => {
                let host = hosts
                    .get(name)
                    .ok_or_else(|| ServeError::UnknownModel(name.to_owned()))?;
                Ok(vec![host.metrics().snapshot(host.name())])
            }
            None => Ok(hosts
                .values()
                .map(|h| h.metrics().snapshot(h.name()))
                .collect()),
        }
    }

    /// Live metrics handles for every loaded model, in name order —
    /// what the telemetry exporter walks to render raw histograms
    /// (the [`ModelRegistry::stats`] snapshot only carries derived
    /// percentiles).
    pub(crate) fn metrics_handles(&self) -> Vec<(String, Arc<crate::metrics::ModelMetrics>)> {
        self.hosts
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|(name, host)| (name.clone(), Arc::clone(host.metrics())))
            .collect()
    }

    /// Unloads every model (graceful drain), leaving the registry empty.
    pub fn shutdown(&self) {
        let drained = std::mem::take(&mut *self.hosts.write().expect("registry lock poisoned"));
        for host in drained.into_values() {
            host.stop();
        }
    }
}
