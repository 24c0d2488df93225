//! The multi-node sharded serving tier (DESIGN.md §14).
//!
//! One process scales to one machine's cores; the ROADMAP's "millions
//! of users" rung needs the unit of scaling to become a *process*.
//! This module adds exactly one new moving part — the [`Router`] — and
//! reuses everything else the workspace already proves:
//!
//! * **Front-end reuse** — the router implements
//!   [`crate::server::RequestHandler`], so
//!   [`crate::Server::bind_handler`] serves it through the same poll
//!   reactor a plain model server uses: both wire
//!   modes on one port, same backpressure, same stable error codes.
//! * **Transport reuse** — router→worker traffic is the existing MANB
//!   binary framing (`PROTOCOL.md` §binary); workers are stock
//!   [`crate::Server`] processes, no worker-side changes needed beyond
//!   the `health` verb every node answers.
//! * **Contract preserved** — every replica of a model answers
//!   bit-identically (the workspace invariant), which is what makes
//!   health-check-driven failover invisible to clients: a retry on a
//!   different replica returns the *same bytes*.
//!
//! Placement is a consistent-hash [`HashRing`] (`ring`) with
//! per-model replica sets; `backend` holds the per-worker connection
//! pool + health state; `router` the routing table, bounded-retry
//! failover and drain-then-join rebalance; `metrics` the
//! `man_cluster_*` Prometheus plane.

pub(crate) mod backend;
pub(crate) mod metrics;
pub(crate) mod ring;
pub(crate) mod router;

pub use ring::HashRing;
pub use router::{ModelPlacement, Router, RouterConfig, RouterStats, REPLICAS};
