//! Engine-parity property tests for the unified sharded runner.
//!
//! Two pinned properties:
//!
//! 1. **Accounting parity with a generic per-object reference.** For
//!    the δ-kinds (`classic`, `bp`, `rr`, `bp_rr`),
//!    [`ShardedEngineRunner`] at `threads = 1` over a random keyed
//!    schedule produces **byte-identical** deterministic accounting to
//!    [`ShardedDeltaRunner`] — per-object generic `DeltaSync`
//!    instances, kept private to this test as the reference — round by
//!    round: per-object envelopes (the reference's per-object
//!    messages), payload elements,
//!    payload/metadata bytes, and memory snapshots. Only the frame count
//!    differs — batching collapses it to O(links) — which is exactly the
//!    claim the `retwis_sharded` bench measures.
//!
//! 2. **Thread-count invariance for every kind.** All nine
//!    [`ProtocolKind`]s produce identical final states *and* identical
//!    deterministic accounting across thread counts.

use std::collections::BTreeMap;
use std::time::Instant;

use crdt_lattice::{ReplicaId, SizeModel, Sizeable};
use crdt_sim::{KeyedOp, RoundMetrics, RunMetrics, ShardedEngineRunner, Topology};
use crdt_sync::{DeltaConfig, DeltaMsg, DeltaSync, Measured, ProtocolKind};
use crdt_types::{Crdt, GSet, GSetOp};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Runs one family of same-typed objects (e.g. "all follower sets") under
/// delta-based synchronization with per-object δ-buffers.
///
/// Heterogeneous systems (Retwis has three object families) run one
/// runner per family over a shared trace: objects never interact, so this
/// is exactly equivalent to one deployment hosting all of them, and the
/// metrics add up.
#[derive(Debug)]
pub struct ShardedDeltaRunner<K: Ord, C: Crdt> {
    topology: Topology,
    cfg: DeltaConfig,
    model: SizeModel,
    /// Per node: object key → that object's protocol instance.
    nodes: Vec<BTreeMap<K, DeltaSync<C>>>,
    metrics: RunMetrics,
}

impl<K, C> ShardedDeltaRunner<K, C>
where
    K: Ord + Clone + core::fmt::Debug + Sizeable,
    C: Crdt,
{
    /// Build a runner over `topology` with the given optimizations.
    pub fn new(topology: Topology, cfg: DeltaConfig, model: SizeModel) -> Self {
        let n = topology.len();
        ShardedDeltaRunner {
            topology,
            cfg,
            model,
            nodes: (0..n).map(|_| BTreeMap::new()).collect(),
            metrics: RunMetrics::new(n),
        }
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Consume, returning the metrics.
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics
    }

    fn shard(&mut self, node: usize, key: &K) -> &mut DeltaSync<C> {
        let id = ReplicaId::from(node);
        self.nodes[node]
            .entry(key.clone())
            .or_insert_with(|| DeltaSync::with_config(id, self.cfg))
    }

    /// Run one round: apply this round's keyed ops, then synchronize every
    /// dirty object with every neighbor (messages delivered immediately —
    /// delta protocols never reply).
    pub fn step(&mut self, ops_per_node: &[Vec<KeyedOp<K, C>>]) {
        assert_eq!(
            ops_per_node.len(),
            self.nodes.len(),
            "ops per node mismatch"
        );
        let mut rm = RoundMetrics::default();

        // Phase 1: local operations, routed to their object. Routing
        // (shard lookup/creation) is driver work and metered as
        // `workload_nanos`; only the protocol callback itself counts as
        // protocol CPU — otherwise this runner's per-round CPU is
        // inflated relative to every other runner, which time `on_op`
        // alone.
        for (node, ops) in ops_per_node.iter().enumerate() {
            for (key, op) in ops {
                let t_route = Instant::now();
                let shard = self.shard(node, key);
                rm.workload_nanos += t_route.elapsed().as_nanos() as u64;
                let t0 = Instant::now();
                shard.local_op(op);
                rm.cpu_nanos += t0.elapsed().as_nanos() as u64;
            }
        }

        // Phase 2: per-object synchronization step at every node.
        let mut deliveries: Vec<(usize, ReplicaId, K, DeltaMsg<C>)> = Vec::new();
        for node in 0..self.nodes.len() {
            let node_id = ReplicaId::from(node);
            let neighbors = self.topology.neighbors(node_id).to_vec();
            let t0 = Instant::now();
            let mut out = Vec::new();
            for (key, shard) in self.nodes[node].iter_mut() {
                if shard.buffer().is_empty() {
                    continue;
                }
                shard.sync_step(&neighbors, &mut out);
                for (to, msg) in out.drain(..) {
                    rm.messages += 1;
                    rm.envelopes += 1;
                    rm.payload_elements += msg.payload_elements();
                    rm.payload_bytes += msg.payload_bytes(&self.model);
                    // The object key rides along as per-group metadata.
                    rm.metadata_bytes += key.payload_bytes(&self.model);
                    deliveries.push((to.index(), node_id, key.clone(), msg));
                }
            }
            rm.cpu_nanos += t0.elapsed().as_nanos() as u64;
        }

        // Phase 3: deliver (routing metered apart, as in phase 1).
        for (to, from, key, msg) in deliveries {
            let t_route = Instant::now();
            let shard = self.shard(to, &key);
            rm.workload_nanos += t_route.elapsed().as_nanos() as u64;
            let t0 = Instant::now();
            shard.receive(from, msg);
            rm.cpu_nanos += t0.elapsed().as_nanos() as u64;
        }

        // Phase 4: memory snapshot.
        for node in &self.nodes {
            for (key, shard) in node {
                let m = shard.memory_usage(&self.model);
                rm.memory.crdt_elements += m.crdt_elements;
                rm.memory.crdt_bytes += m.crdt_bytes + key.payload_bytes(&self.model);
                rm.memory.meta_elements += m.meta_elements;
                rm.memory.meta_bytes += m.meta_bytes;
            }
        }

        // One worker did everything: the critical path is the total work.
        rm.critical_path_nanos = rm.cpu_nanos;
        self.metrics.push_round(rm);
    }

    /// Are all replicas of every object identical?
    pub fn converged(&self) -> bool {
        let reference = &self.nodes[0];
        self.nodes.iter().skip(1).all(|node| {
            // Key sets and states must match (missing key = ⊥ ≠ non-⊥).
            node.len() == reference.len()
                && node
                    .iter()
                    .zip(reference.iter())
                    .all(|((k1, s1), (k2, s2))| k1 == k2 && s1.state_ref() == s2.state_ref())
        })
    }

    /// Keep synchronizing without new ops until convergence (or give up
    /// after `max_rounds`). Returns rounds taken.
    pub fn run_to_convergence(&mut self, max_rounds: usize) -> Option<usize> {
        let idle: Vec<Vec<KeyedOp<K, C>>> = vec![Vec::new(); self.nodes.len()];
        for extra in 0..=max_rounds {
            if self.converged() {
                return Some(extra);
            }
            self.step(&idle);
        }
        None
    }

    /// A node's replica of one object, if it exists.
    pub fn object_state(&self, node: ReplicaId, key: &K) -> Option<&C> {
        self.nodes[node.index()].get(key).map(DeltaSync::state_ref)
    }

    /// Number of distinct objects hosted at `node`.
    pub fn objects_at(&self, node: ReplicaId) -> usize {
        self.nodes[node.index()].len()
    }
}

const N: usize = 5;

/// One round's keyed ops per node, from a flat (node, key, elem) list.
type Schedule = Vec<Vec<Vec<KeyedOp<u32, GSet<u64>>>>>;

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    // 1–3 rounds; per round up to 8 keyed ops spread over N nodes and a
    // 4-key space. Element values collide across nodes on purpose
    // (concurrent duplicate adds exercise RR extraction).
    pvec(pvec((0usize..N, 0u32..4, 0u64..16), 0..8), 1..4).prop_map(|rounds| {
        rounds
            .into_iter()
            .map(|ops| {
                let mut per_node = vec![Vec::new(); N];
                for (node, key, elem) in ops {
                    per_node[node].push((key, GSetOp::Add(elem)));
                }
                per_node
            })
            .collect()
    })
}

fn delta_kinds() -> [(DeltaConfig, ProtocolKind); 4] {
    [
        (DeltaConfig::CLASSIC, ProtocolKind::Classic),
        (DeltaConfig::BP, ProtocolKind::Bp),
        (DeltaConfig::RR, ProtocolKind::Rr),
        (DeltaConfig::BP_RR, ProtocolKind::BpRr),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn threads1_matches_sharded_delta_runner_byte_for_byte(schedule in schedule_strategy()) {
        for (cfg, kind) in delta_kinds() {
            let topo = Topology::partial_mesh(N, 4);
            let mut legacy: ShardedDeltaRunner<u32, GSet<u64>> =
                ShardedDeltaRunner::new(topo.clone(), cfg, SizeModel::compact());
            let mut unified: ShardedEngineRunner<u32, GSet<u64>> =
                ShardedEngineRunner::new(kind, topo, SizeModel::compact(), 1);
            for round in &schedule {
                legacy.step(round);
                unified.step(round);
            }
            let extra_legacy = legacy.run_to_convergence(64).expect("legacy converges");
            let extra_unified = unified.run_to_convergence(64).expect("unified converges");
            prop_assert_eq!(extra_legacy, extra_unified, "{}: convergence rounds", kind);

            let (lm, um) = (legacy.metrics(), unified.metrics());
            prop_assert_eq!(lm.rounds.len(), um.rounds.len(), "{}: round count", kind);
            for (r, (lr, ur)) in lm.rounds.iter().zip(um.rounds.iter()).enumerate() {
                // The legacy runner's per-object messages are the unified
                // runner's pre-batching envelopes.
                prop_assert_eq!(lr.messages, ur.envelopes, "{} round {}: envelopes", kind, r);
                prop_assert_eq!(
                    lr.payload_elements, ur.payload_elements,
                    "{} round {}: elements", kind, r
                );
                prop_assert_eq!(
                    lr.payload_bytes, ur.payload_bytes,
                    "{} round {}: payload bytes", kind, r
                );
                prop_assert_eq!(
                    lr.metadata_bytes, ur.metadata_bytes,
                    "{} round {}: metadata bytes", kind, r
                );
                prop_assert_eq!(lr.memory, ur.memory, "{} round {}: memory", kind, r);
                // Batching can only reduce frame count.
                prop_assert!(ur.messages <= lr.messages, "{} round {}: frames", kind, r);
            }
            for node in 0..N {
                let id = ReplicaId::from(node);
                prop_assert_eq!(
                    legacy.objects_at(id),
                    unified.objects_at(id),
                    "{} node {}: object count", kind, node
                );
                for key in 0u32..4 {
                    prop_assert_eq!(
                        legacy.object_state(id, &key),
                        unified.object_state(id, &key),
                        "{} node {} key {}: state", kind, node, key
                    );
                }
            }
        }
    }

    #[test]
    fn every_kind_is_thread_count_invariant(schedule in schedule_strategy()) {
        for kind in ProtocolKind::ALL {
            let run = |threads: usize| {
                let mut r: ShardedEngineRunner<u32, GSet<u64>> = ShardedEngineRunner::new(
                    kind,
                    Topology::partial_mesh(N, 4),
                    SizeModel::compact(),
                    threads,
                );
                for round in &schedule {
                    r.step(round);
                }
                r.run_to_convergence(64)
                    .unwrap_or_else(|| panic!("{kind} did not converge"));
                let states: Vec<Option<GSet<u64>>> = (0..N)
                    .flat_map(|node| {
                        (0u32..4).map(move |key| (node, key))
                    })
                    .map(|(node, key)| r.object_state(ReplicaId::from(node), &key).cloned())
                    .collect();
                let m = r.metrics();
                (
                    m.total_elements(),
                    m.total_bytes(),
                    m.total_messages(),
                    m.total_envelopes(),
                    states,
                )
            };
            let one = run(1);
            let four = run(4);
            prop_assert_eq!(&one, &four, "{}: threads 1 vs 4", kind);
        }
    }
}
