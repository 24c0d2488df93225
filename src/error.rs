//! The unified error type of the pipeline API.
//!
//! Every stage of the [`crate::Pipeline`] is `Result`-first: failures that
//! the member crates report through their own typed errors
//! ([`CompileError`], [`UnsupportedQuartetError`], [`TimingClosureError`])
//! or through `std::io` are wrapped into one [`ManError`] enum, so a
//! caller can drive train → compile → cost → serve with `?` throughout.

use std::fmt;

use man::asm::UnsupportedQuartetError;
use man::fixed::CompileError;
use man_hw::synth::TimingClosureError;

/// A failure of the serving runtime (`man-serve`), carried by
/// [`ManError::Serve`].
///
/// The type lives in the facade so the serving crate — which sits *above*
/// `man-repro` — can speak the same unified error language as every other
/// stage; the TCP front-end maps each variant onto a stable wire code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The model's request queue is full; the request was rejected
    /// instead of queued (explicit backpressure).
    Overloaded {
        /// The model whose queue is full.
        model: String,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// No model of this name is loaded in the registry.
    UnknownModel(String),
    /// The model's queue was closed — it was unloaded, swapped out or
    /// its host is shutting down — when the request was submitted, or
    /// the batch holding the request unwound before answering it.
    Unavailable(String),
    /// The reply did not arrive within the scheduler's fixed 30 s
    /// request timeout (`REQUEST_TIMEOUT`, PROTOCOL.md §1.2).
    Timeout(String),
    /// A malformed wire request: bad JSON, a missing field, or an
    /// unknown operation.
    Protocol(String),
    /// An unexpected worker-side failure, stringified for transport
    /// across the reply channel.
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { model, capacity } => write!(
                f,
                "model `{model}` is overloaded (queue capacity {capacity} reached)"
            ),
            ServeError::UnknownModel(model) => write!(f, "no model named `{model}` is loaded"),
            ServeError::Unavailable(model) => {
                write!(f, "model `{model}` became unavailable mid-request")
            }
            ServeError::Timeout(model) => {
                write!(f, "request to model `{model}` timed out")
            }
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Internal(msg) => write!(f, "internal serving error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Any failure of the pipeline API.
#[derive(Debug)]
pub enum ManError {
    /// A float network failed to compile onto the fixed-point engine.
    Compile(CompileError),
    /// A weight's quartets are not producible under an alphabet set.
    UnsupportedQuartet(UnsupportedQuartetError),
    /// Gate-level synthesis could not close timing at the target clock.
    TimingClosure(TimingClosureError),
    /// Reading or writing a model artifact failed at the I/O layer.
    Io(std::io::Error),
    /// A model artifact is malformed: bad JSON, wrong format tag or an
    /// unsupported version.
    Artifact(String),
    /// The pipeline was configured inconsistently (missing data, empty
    /// candidate list, out-of-range word length, ...).
    Config(String),
    /// An inference input's length does not match the network's input
    /// layer.
    Shape {
        /// Values the network expects per input.
        expected: usize,
        /// Values the caller provided.
        got: usize,
    },
    /// A serving-runtime failure (queueing, routing, protocol).
    Serve(ServeError),
}

impl ManError {
    /// Convenience constructor for configuration errors.
    pub(crate) fn config(msg: impl Into<String>) -> Self {
        ManError::Config(msg.into())
    }

    /// Convenience constructor for artifact errors.
    pub(crate) fn artifact(msg: impl Into<String>) -> Self {
        ManError::Artifact(msg.into())
    }
}

impl fmt::Display for ManError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManError::Compile(e) => write!(f, "compile error: {e}"),
            ManError::UnsupportedQuartet(e) => write!(f, "unsupported quartet: {e}"),
            ManError::TimingClosure(e) => write!(f, "timing closure: {e}"),
            ManError::Io(e) => write!(f, "i/o error: {e}"),
            ManError::Artifact(msg) => write!(f, "artifact error: {msg}"),
            ManError::Config(msg) => write!(f, "configuration error: {msg}"),
            ManError::Shape { expected, got } => write!(
                f,
                "input has {got} values but the network expects {expected}"
            ),
            ManError::Serve(e) => write!(f, "serving error: {e}"),
        }
    }
}

impl std::error::Error for ManError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ManError::Compile(e) => Some(e),
            ManError::UnsupportedQuartet(e) => Some(e),
            ManError::TimingClosure(e) => Some(e),
            ManError::Io(e) => Some(e),
            ManError::Serve(e) => Some(e),
            ManError::Artifact(_) | ManError::Config(_) | ManError::Shape { .. } => None,
        }
    }
}

impl From<ServeError> for ManError {
    fn from(e: ServeError) -> Self {
        ManError::Serve(e)
    }
}

impl From<CompileError> for ManError {
    fn from(e: CompileError) -> Self {
        ManError::Compile(e)
    }
}

impl From<UnsupportedQuartetError> for ManError {
    fn from(e: UnsupportedQuartetError) -> Self {
        ManError::UnsupportedQuartet(e)
    }
}

impl From<TimingClosureError> for ManError {
    fn from(e: TimingClosureError) -> Self {
        ManError::TimingClosure(e)
    }
}

impl From<std::io::Error> for ManError {
    fn from(e: std::io::Error) -> Self {
        ManError::Io(e)
    }
}

impl From<serde_json::Error> for ManError {
    fn from(e: serde_json::Error) -> Self {
        ManError::Artifact(e.to_string())
    }
}
