//! # crdt-sim
//!
//! Deterministic round-based network simulator for CRDT synchronization
//! experiments — the substrate standing in for the paper's Emulab/
//! Kubernetes cluster (§V-A).
//!
//! * [`Topology`] — the paper's 15-node partial mesh and tree (Fig. 6)
//!   plus rings, lines, stars, full meshes and seeded random graphs;
//! * [`Network`] — a message fabric with seeded duplication/reordering
//!   (the §II channel model) and optional drops for the acked variant;
//! * [`RunMetrics`] — transmission in elements and payload/metadata bytes,
//!   per-round memory snapshots, and protocol CPU time: exactly the
//!   quantities of Figs. 1 and 7–12.
//!
//! Three runners drive rounds of "update, synchronize, deliver":
//!
//! * [`Runner`] ([`run_experiment`]) — one compile-time
//!   [`crdt_sync::Protocol`] instance per node over the [`Network`]
//!   fabric: the zero-dispatch path of the per-figure experiments;
//! * [`DynRunner`] ([`run_dyn_experiment`]) — one type-erased engine of a
//!   runtime [`crdt_sync::ProtocolKind`] per node, with the full
//!   scenario layer: [`ScenarioSchedule`] / [`run_scenario`] drive
//!   partitions that heal, crashes with and without durable state, joins
//!   with bootstrap and flapping links on the clock, measuring
//!   convergence rounds, bytes to re-converge, repair traffic and
//!   staleness windows;
//! * [`ShardedEngineRunner`] — one `delta_store::StoreReplica` per node:
//!   per-object engines of any kind (the paper's 30 K-object Retwis
//!   granularity), thread-parallel phases, node-level scenario events
//!   repaired through `delta_store::repair_pair`, and per-destination
//!   [`crdt_sync::BatchEnvelope`] batching so wire frames per round are
//!   O(links), not O(objects).
//!
//! Every quantity the paper reports is a *protocol* property, not a
//! network property, so a deterministic simulation reproduces the shapes
//! (who wins, by what factor) without a testbed: the runners meter what
//! the protocols put on the wire and hold in memory, which no testbed
//! property changes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dyn_runner;
mod metrics;
mod network;
mod parallel;
mod runner;
mod scenario;
mod sharded_engine;
mod topology;

pub use dyn_runner::{run_dyn_experiment, DynRunner};
pub use metrics::{RoundMetrics, RunMetrics};
pub use network::{Envelope, LinkFault, Network, NetworkConfig};
pub use runner::{run_experiment, Runner, Workload};
pub use scenario::{run_scenario, ScenarioEvent, ScenarioOutcome, ScenarioSchedule};
pub use sharded_engine::{register_runner_metrics, KeyedOp, ShardedEngineRunner};
pub use topology::{DynamicTopology, Topology};
