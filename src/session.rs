//! The serving entry point: batched inference sessions.
//!
//! An [`InferenceSession`] shares a compiled [`man::fixed::FixedNet`] and
//! runs every inference through its exact-integer MAC path
//! ([`man::fixed::FixedNet::run`]), which is bit-identical to the ASM
//! reference datapath [`man::fixed::FixedNet::infer_raw`]. A session
//! holds no per-request state beyond its configuration: scratch buffers
//! live for one call, and every entry point takes `&self`, so one
//! session can be driven from many scheduler threads via an `Arc`.
//!
//! # Parallel execution
//!
//! [`InferenceSession::with_parallelism`] turns the session into the
//! parallel batch engine: `infer_batch` shards the rows of a batch
//! across workers (threads drawn from the process-wide persistent
//! `man-par` pool), and a lone row runs on the caller's thread. Row
//! sharding is bit-identical to the sequential path **by
//! construction**: every row is computed whole, on one thread, and the
//! merge only reassembles finished rows. See `man-par` for the pool
//! itself and DESIGN.md §8–§9 for the determinism argument.
//!
//! Every batch's sharding is resolved by [`Parallelism::plan`] from the
//! model's compile-time MACs per inference and the batch size;
//! [`InferenceSession::stats`] reports the plan the most recent batch
//! resolved to.

use std::sync::{Arc, Mutex};

use man::fixed::{argmax_raw, FixedNet};
use man_par::{Parallelism, ShardPlan};
use serde::Serialize;

use crate::artifact::CompiledModel;
use crate::error::ManError;

/// The outcome of one inference.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Argmax class over the raw scores.
    pub class: usize,
    /// Raw output-layer accumulators ("logits" at the final layer's
    /// accumulator fraction) — bit-identical to
    /// [`man::fixed::FixedNet::infer_raw`].
    pub scores: Vec<i64>,
}

impl Prediction {
    fn new(scores: Vec<i64>) -> Self {
        Self {
            class: argmax_raw(&scores),
            scores,
        }
    }
}

/// A batched inference session over a compiled model.
///
/// # Example
///
/// ```no_run
/// # use man_repro::{CompiledModel, Parallelism};
/// # fn demo(model: &CompiledModel, batch: &[Vec<f32>]) {
/// let session = model.session().with_parallelism(Parallelism::Auto);
/// for p in session.infer_batch(batch).expect("inputs match the network") {
///     println!("class {} (scores {:?})", p.class, p.scores);
/// }
/// # }
/// ```
pub struct InferenceSession {
    fixed: Arc<FixedNet>,
    parallelism: Parallelism,
    /// Compile-time MACs per inference — the tuner's work measure.
    macs_per_row: u64,
    /// The sharding plan the most recent batch resolved to — what
    /// [`InferenceSession::stats`] reports so operators can see what the
    /// tuner actually chose.
    last_plan: Mutex<Option<ShardPlan>>,
}

/// A point-in-time observability snapshot of one session: its
/// configuration and the plan the most recent batch resolved to.
#[derive(Clone, Debug, Serialize)]
pub struct SessionStats {
    /// The configured parallelism (`"sequential"`, `"threads(4)"`,
    /// `"auto(8)"`).
    pub parallelism: String,
    /// Worker budget.
    pub workers: u64,
    /// The sharding plan the most recent batch resolved to (e.g.
    /// `"sequential"`, `"rows(4)"`); `"unresolved"` before the first
    /// inference.
    pub plan: String,
    /// Compile-time MACs per inference (the tuner's work measure).
    pub macs_per_row: u64,
}

impl InferenceSession {
    /// Opens a session over a compiled model. The compiled engine is
    /// shared, not copied — opening many sessions is cheap.
    pub(crate) fn new(model: &CompiledModel) -> Self {
        let fixed = model.fixed_shared();
        let macs_per_row = fixed.macs_per_inference();
        Self {
            fixed,
            parallelism: Parallelism::Sequential,
            macs_per_row,
            last_plan: Mutex::new(None),
        }
    }

    /// Sets the worker budget batches may be sharded across. The
    /// threads come from the process-wide persistent `man-par` pool, so
    /// resizing a session never spawns or kills OS threads.
    /// [`Parallelism::Sequential`] (the default) runs on the caller's
    /// thread; [`Parallelism::Auto`] lets the tuner resolve the worker
    /// count per batch (see [`Parallelism::plan`]). Every setting
    /// returns bit-identical predictions.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The sharding plan the most recent batch resolved to, or `None`
    /// before the first inference — the cheap (`Copy`) form of what
    /// [`InferenceSession::stats`] renders as the `plan` label, for
    /// callers on a hot path (the serve scheduler records it per
    /// dispatch).
    pub fn last_plan(&self) -> Option<ShardPlan> {
        *self
            .last_plan
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// An observability snapshot: configuration and resolved plan.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            parallelism: self.parallelism.label(),
            workers: self.workers() as u64,
            plan: self
                .last_plan()
                .map_or_else(|| "unresolved".to_owned(), ShardPlan::label),
            macs_per_row: self.macs_per_row,
        }
    }

    /// The worker budget (the per-batch resolved count can be lower —
    /// see [`Parallelism::plan`]).
    pub(crate) fn workers(&self) -> usize {
        self.parallelism.workers()
    }

    fn check_shape(&self, input: &[f32]) -> Result<(), ManError> {
        let expected = self.fixed.input_len();
        if input.len() != expected {
            return Err(ManError::Shape {
                expected,
                got: input.len(),
            });
        }
        Ok(())
    }

    /// Resolves and remembers (for [`InferenceSession::stats`]) the plan
    /// of a batch of `batch` rows.
    fn resolve(&self, batch: usize) -> ShardPlan {
        let plan = self.parallelism.plan(self.macs_per_row, batch);
        *self
            .last_plan
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(plan);
        plan
    }

    /// Runs one inference on the caller's thread, whatever the
    /// session's [`Parallelism`]: a lone row always resolves to
    /// [`ShardPlan::Sequential`].
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Shape`] if `input` does not hold exactly
    /// `self.fixed().input_len()` values.
    pub fn infer(&self, input: &[f32]) -> Result<Prediction, ManError> {
        self.check_shape(input)?;
        let plan = self.resolve(1);
        let scores = self.fixed.run(&[input], plan).swap_remove(0);
        Ok(Prediction::new(scores))
    }

    /// Runs a batch of inferences. Equivalent to — and bit-identical
    /// with — calling [`InferenceSession::infer`] once per input, for
    /// every [`Parallelism`] setting.
    ///
    /// On a parallel session the rows are sharded across the workers; a
    /// lone row runs on the caller's thread.
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Shape`] on the first wrong-length input; the
    /// whole batch is validated before any inference runs.
    pub fn infer_batch(&self, inputs: &[Vec<f32>]) -> Result<Vec<Prediction>, ManError> {
        for input in inputs {
            self.check_shape(input)?;
        }
        let plan = self.resolve(inputs.len());
        // The kernel-execute stage of the obs taxonomy (DESIGN.md §12):
        // one span per batch, labeled with the resolved plan, arg =
        // batch size. A no-op branch when the plane is off.
        let _kernel_span = man_obs::Span::labeled(
            man_obs::Stage::Kernel,
            0,
            plan.stage_label(),
            inputs.len() as u64,
        );
        Ok(self
            .fixed
            .run(inputs, plan)
            .into_iter()
            .map(Prediction::new)
            .collect())
    }
}
