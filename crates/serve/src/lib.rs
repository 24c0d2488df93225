//! **man-serve** — a concurrent serving runtime for compiled MAN models.
//!
//! The paper's economics only pay off under traffic: per-call costs
//! amortize across *concurrent requests* exactly like they amortize
//! across a batch. This crate turns many independent callers into
//! batches:
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!  TCP (NDJSON, ───▶ │ ModelRegistry ──▶ ModelHost("digits")      │
//!   MANB)            │   name routing      bounded queue          │
//!  in-process ─────▶ │   hot load/reload   batch led by a caller  │
//!                    │   unload/stats      InferenceSession       │
//!                    └────────────────────────────────────────────┘
//! ```
//!
//! * [`ModelHost`] — the dynamic micro-batching scheduler, with no
//!   threads of its own: a bounded queue per model, and whichever
//!   waiting caller finds no batch running drains up to
//!   [`BatchConfig::max_batch`] queued requests into one `infer_batch`
//!   call on its own thread, with explicit `Overloaded` backpressure
//!   and a drain-then-return shutdown.
//! * [`ModelRegistry`] — named models, hot (re)loaded from single-file
//!   `CompiledModel` artifacts, routed by name; in-process callers use
//!   it directly for the same four operations the wire protocol
//!   speaks.
//! * [`Server`] / [`TcpClient`] / [`BinaryClient`] — the TCP front-end
//!   over `std::net`: a nonblocking poll `reactor` that serves 10k+
//!   mostly-idle connections on a handful of threads, with
//!   newline-delimited JSON and a compact length-prefixed binary
//!   [`framing`] negotiated per connection on the same port (see
//!   `PROTOCOL.md` and [`protocol`] for the grammar and stable error
//!   codes).
//! * [`metrics`] — per-model counters, octave-bucket latency and
//!   queue-wait percentiles and the micro-batch size distribution,
//!   exported through the `stats` verb.
//! * `exporter` — the unified telemetry export plane: one Prometheus
//!   text page, served on demand by the `metrics` verb, unifying model
//!   stats, `man-par` pool utilization and the `man-obs` per-stage span
//!   histograms; the `dump_trace` verb retrieves flight-recorder
//!   dumps.
//!
//! Everything is `std`-only and deterministic-by-construction: a batch
//! of predictions is bit-identical to the same inputs served
//! sequentially, whatever the interleaving — the property
//! `tests/` pins down under thread hammering and mid-flight reloads.
//!
//! # Quickstart
//!
//! ```no_run
//! use man_serve::{BatchConfig, ModelRegistry, Server};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let registry = ModelRegistry::new(BatchConfig::default());
//! registry.load_file("digits", "digits.man.json")?;
//!
//! // In-process serving:
//! let p = registry.predict("digits", vec![0.0; 256])?;
//! println!("class {}", p.class);
//!
//! // Or over TCP:
//! let server = Server::bind("127.0.0.1:0", registry)?;
//! println!("serving on {}", server.local_addr());
//! # Ok(()) }
//! ```

// The one exception to no-unsafe is the poll(2) shim in
// `reactor::poll` — a single scoped allow, pinned to that file by the
// man-analyze unsafe audit (`forbid` would reject even that).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod exporter;
pub mod framing;
pub mod metrics;
pub mod protocol;
mod reactor;
pub mod registry;
mod server;

pub use batcher::{BatchConfig, ModelHost};
pub use metrics::{LatencyHistogram, ModelMetrics, ModelStats};
pub use reactor::{FrontendStats, ReactorConfig};
pub use registry::{ModelInfo, ModelRegistry};
pub use server::{BinaryClient, RequestHandler, Server, TcpClient, WireError};

// The observability plane itself (levels, span stages, flight
// recorder): re-exported so servers and tests can set the level and
// pull dumps without a separate dependency edge.
pub use man_obs as obs;

// Re-export the facade's serving-relevant types so a server binary can
// depend on `man-serve` alone.
pub use man_repro::{
    CompiledModel, InferenceSession, ManError, Parallelism, Prediction, ServeError,
};
