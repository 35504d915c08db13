//! # delta-store
//!
//! A **multi-object replicated store** over runtime-selectable
//! synchronization — the library layer a downstream system would embed,
//! as opposed to the experiment harness in `crdt-sim`.
//!
//! Each replica ([`StoreReplica`]) holds a keyspace of independent CRDT
//! objects, every object synchronized by its own type-erased engine
//! ([`crdt_sync::SyncEngine`]) of the [`crdt_sync::ProtocolKind`] the
//! [`StoreConfig`] selects — BP+RR by default (the paper's proposal), or
//! any baseline (`classic`, `state`, `scuttlebutt`, …) for comparison,
//! chosen at **runtime** (e.g. from a `--protocol` flag), not compiled
//! per protocol. Synchronization batches all objects' envelopes per
//! neighbor into a single [`StoreMsg`], the granularity the paper's
//! Retwis deployment uses (§V-C: 30 K objects, per-object δ-buffers);
//! envelope payloads are real encoded bytes, so batches serialize for
//! any byte transport.
//!
//! On top of the replica sit:
//!
//! * [`Transport`] — the pluggable message-passing boundary, with the
//!   in-memory [`LoopbackTransport`] for tests and single-process use;
//! * [`Cluster`] — a set of replicas wired through a transport over an
//!   arbitrary neighbor graph, with link-level partitions, traffic
//!   accounting ([`TrafficStats`]), and **digest-driven pairwise repair**
//!   (the \[30\] protocol of the paper's §VI) for reconciling after
//!   partitions without full state exchange. Membership is dynamic:
//!   replicas crash (durably or with state loss), restart with a
//!   bootstrap exchange, and [`Cluster::join`] mid-run with a
//!   state-transfer from a live peer; convergence runs report a
//!   diagnostic [`ConvergenceReport`] instead of a bare option;
//! * [`repair_pair`] — the pairwise keyspace repair (§VI digests,
//!   localized by a Merkle descent at scale, or a snapshot bootstrap)
//!   that [`Cluster`] and `crdt-sim`'s sharded runner both run.
//!
//! ## Quickstart
//!
//! ```
//! use crdt_lattice::ReplicaId;
//! use crdt_types::{AWSet, AWSetOp};
//! use delta_store::{Cluster, StoreConfig};
//!
//! // Three replicas of a keyspace of add-wins sets, fully connected,
//! // running the protocol named at runtime.
//! let cfg = StoreConfig::new("bp_rr".parse().unwrap());
//! let mut cluster: Cluster<&str, AWSet<String>> = Cluster::full_mesh(3, cfg);
//!
//! // Replica 0 builds a shopping cart; replica 2 builds another.
//! cluster.update(0, "cart:alice", &AWSetOp::Add(ReplicaId(0), "oat milk".into()));
//! cluster.update(2, "cart:bob", &AWSetOp::Add(ReplicaId(2), "espresso".into()));
//!
//! // One synchronization round ships only the deltas.
//! cluster.sync_round();
//!
//! // Every replica now sees both objects.
//! assert!(cluster.replica(1).get("cart:alice").unwrap().contains(&"oat milk".into()));
//! assert!(cluster.replica(0).get("cart:bob").unwrap().contains(&"espresso".into()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod message;
mod metrics;
mod repair;
mod replica;
mod transport;

pub use cluster::{Cluster, ConvergenceReport};
pub use message::StoreMsg;
pub use metrics::TrafficStats;
pub use repair::{repair_pair, PairRepair, RepairMode};
pub use replica::{StoreConfig, StoreMetrics, StoreReplica};
pub use transport::{LoopbackTransport, Transport};
