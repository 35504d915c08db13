//! The sharded runner: one [`StoreReplica`] per node, so every object
//! carries its own engine of **any** [`ProtocolKind`] — the paper's Retwis
//! granularity (one independent δ-buffer per object, §V-C) at 30 K-object
//! scale — driven in thread-parallel phases, scenario-capable, with
//! per-destination envelope batching:
//!
//! * **protocol-generic** — a node is a `delta_store::StoreReplica`, the
//!   same keyspace type the in-process `delta_store::Cluster` and
//!   `crdt-net`'s socket nodes host, so the runner drives all nine
//!   [`ProtocolKind`]s;
//! * **thread-parallel** — nodes share nothing within a phase, so every
//!   phase runs contiguous node chunks per thread, delivery grouped by
//!   recipient, replies looping to quiescence. Deterministic accounting
//!   is identical across thread counts;
//! * **batched** — all of one node's per-object envelopes bound for one
//!   recipient in a round coalesce into a single
//!   [`crdt_sync::BatchEnvelope`] wire frame (the frame `delta-store`'s
//!   transport ships), so [`RoundMetrics::messages`] is O(links) per
//!   round, independent of object count, while
//!   [`RoundMetrics::envelopes`] keeps counting per-object protocol
//!   envelopes — their ratio is the batch-amortization factor;
//! * **scenario-capable** — [`crate::ScenarioEvent`]s apply at the *node*
//!   level across all of its objects: a crash takes every shard down (a
//!   non-durable one wipes them), a heal or restart repairs the pair with
//!   `delta_store::repair_pair` (the store cluster's repair), a join
//!   bootstraps the full keyspace. Link-level fault overlays need the
//!   seeded [`crate::Network`] fabric and stay with [`crate::DynRunner`].
//!
//! Protocol CPU ([`RoundMetrics::cpu_nanos`]) covers each whole replica
//! call: op encoding, the engine callbacks, and envelope encode/decode on
//! the type-erased path. The runner's own framing accounting and routing
//! between nodes is [`RoundMetrics::workload_nanos`].
//!
//! At `threads = 1` with a δ-kind, deterministic accounting (elements,
//! payload/metadata bytes, memory, per-object envelopes) is byte-identical
//! to a runner of generic per-object `DeltaSync` instances — the parity
//! property test in `tests/sharded_engine_parity.rs` pins that.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crdt_lattice::{ReplicaId, SizeModel, Sizeable, WireEncode};
use crdt_obs::{EventKind, Obs};
use crdt_sync::digest::PairSyncStats;
use crdt_sync::{BatchEnvelope, Measured, MemoryUsage, MerkleRepairMetrics, Params, ProtocolKind};
use crdt_types::Crdt;
use delta_store::{PairRepair, RepairMode, StoreConfig, StoreReplica};

use crate::metrics::{phase_split, RoundMetrics, RunMetrics};
use crate::parallel::par_map_chunked as par_map;
use crate::scenario::ScenarioEvent;
use crate::topology::{DynamicTopology, Topology};

/// A keyed operation: which object, and what to do to it.
pub type KeyedOp<K, C> = (K, <C as Crdt>::Op);

/// One node's phase output: protocol nanos and per-destination batches.
type PhaseOutput<K> = (u64, Vec<(ReplicaId, BatchEnvelope<K>)>);

/// A batch in flight: `(from, to, frame)`.
type InFlight<K> = (ReplicaId, ReplicaId, BatchEnvelope<K>);

/// Runner-level observability: registry cells the driver bumps plus
/// the trace-event hook. Attached via
/// [`ShardedEngineRunner::set_obs`]; absent by default (zero cost).
#[derive(Clone, Debug)]
struct RunnerObs {
    obs: Obs,
    /// `sim.runner.rounds` — synchronization rounds driven.
    rounds: crdt_obs::Counter,
    /// `sim.runner.undeliverable` — batches dropped at delivery (down
    /// node or active partition).
    undeliverable: crdt_obs::Counter,
    /// Shared `repair.*` cells (Merkle descents + pairwise sessions).
    repair: MerkleRepairMetrics,
}

/// Register (or look up) the runner-level cells: the `sim.runner.*`
/// counters plus the shared `repair.*` namespace.
fn runner_cells(
    reg: &crdt_obs::Registry,
) -> (crdt_obs::Counter, crdt_obs::Counter, MerkleRepairMetrics) {
    (
        crdt_obs::register_counter!(reg, "sim.runner.rounds", "synchronization rounds driven"),
        crdt_obs::register_counter!(
            reg,
            "sim.runner.undeliverable",
            "batches dropped at delivery (down node or active partition)"
        ),
        MerkleRepairMetrics::register(reg),
    )
}

/// Register every runner-layer metric in `reg` (idempotent) without
/// building a runner — the golden-name gate enumerates the `sim.*` and
/// `repair.*` namespaces through this.
pub fn register_runner_metrics(reg: &crdt_obs::Registry) {
    let _ = runner_cells(reg);
}

/// The sharded runner (see module docs).
#[derive(Debug)]
pub struct ShardedEngineRunner<K: Ord, C: Crdt> {
    cfg: StoreConfig,
    topo: DynamicTopology,
    threads: usize,
    nodes: Vec<StoreReplica<K, C>>,
    metrics: RunMetrics,
    /// Cumulative out-of-band recovery traffic (digest repair and
    /// bootstrap transfers).
    repair: PairSyncStats,
    /// Batches discarded at delivery because the recipient was down or
    /// across an active partition.
    undeliverable: u64,
    /// Last crash durability per node (drives the restart repair policy).
    durability: Vec<bool>,
    round: usize,
    /// Observability hook, attached via [`ShardedEngineRunner::set_obs`].
    obs: Option<RunnerObs>,
}

impl<K, C> ShardedEngineRunner<K, C>
where
    K: Ord + Clone + core::fmt::Debug + Sizeable + std::hash::Hash + WireEncode + Send + Sync,
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + Sync + 'static,
{
    /// Build a runner over `topology`: protocol `kind` for every object,
    /// `threads` worker threads (clamped to ≥ 1). Objects are created
    /// lazily at `⊥` when first updated or received.
    pub fn new(kind: ProtocolKind, topology: Topology, model: SizeModel, threads: usize) -> Self {
        let n = topology.len();
        let cfg = StoreConfig::new(kind).with_model(model);
        ShardedEngineRunner {
            cfg,
            topo: DynamicTopology::new(topology),
            threads: threads.max(1),
            nodes: (0..n)
                .map(|i| StoreReplica::with_params(ReplicaId::from(i), cfg, Params::new(n)))
                .collect(),
            metrics: RunMetrics::new(n),
            repair: PairSyncStats::default(),
            undeliverable: 0,
            durability: vec![true; n],
            round: 0,
            obs: None,
        }
    }

    /// Attach an observability bundle: the runner registers its
    /// `sim.runner.*` / `repair.*` cells in `obs.registry`, drives
    /// `obs.clock` to its round counter, and emits trace events for
    /// rounds, faults, and repair descents.
    pub fn set_obs(&mut self, obs: &Obs) {
        let (rounds, undeliverable, repair) = runner_cells(&obs.registry);
        self.obs = Some(RunnerObs {
            obs: obs.clone(),
            rounds,
            undeliverable,
            repair,
        });
    }

    /// The protocol every object runs.
    pub fn kind(&self) -> ProtocolKind {
        self.cfg.protocol
    }

    /// The (base) topology driving this run.
    pub fn topology(&self) -> &Topology {
        self.topo.base()
    }

    /// The live membership/partition view.
    pub fn membership(&self) -> &DynamicTopology {
        &self.topo
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Consume, returning the metrics.
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics
    }

    /// Cumulative out-of-band recovery traffic.
    pub fn repair_stats(&self) -> PairSyncStats {
        self.repair
    }

    /// Batches dropped because the recipient was down or unreachable.
    pub fn undeliverable(&self) -> u64 {
        self.undeliverable
    }

    /// Number of distinct objects hosted at `node`.
    pub fn objects_at(&self, node: ReplicaId) -> usize {
        self.nodes[node.index()].len()
    }

    /// A node's replica of one object, typed, if it exists.
    pub fn object_state(&self, node: ReplicaId, key: &K) -> Option<&C> {
        self.nodes[node.index()].get(key.clone())
    }

    fn account_batch(rm: &mut RoundMetrics, batch: &BatchEnvelope<K>, model: &SizeModel) {
        rm.messages += 1;
        rm.envelopes += batch.len() as u64;
        rm.payload_elements += batch.payload_elements();
        rm.payload_bytes += batch.payload_bytes(model);
        rm.metadata_bytes += batch.metadata_bytes(model);
    }

    /// Charge one phase's per-node protocol nanos to `rm`.
    fn charge_cpu(rm: &mut RoundMetrics, cpu: &[u64], threads: usize) {
        let (work, critical) = phase_split(cpu, threads);
        rm.cpu_nanos += work;
        rm.critical_path_nanos += critical;
    }

    /// Charge one phase's outputs to `rm` and put its batches in flight.
    /// Accounting and queueing the frames is driver work
    /// (`workload_nanos`).
    fn ship(
        rm: &mut RoundMetrics,
        outputs: Vec<PhaseOutput<K>>,
        threads: usize,
        model: &SizeModel,
    ) -> Vec<InFlight<K>> {
        let t_route = Instant::now();
        let mut wave = Vec::new();
        let mut cpu = Vec::with_capacity(outputs.len());
        for (i, (nanos, batches)) in outputs.into_iter().enumerate() {
            cpu.push(nanos);
            for (to, batch) in batches {
                Self::account_batch(rm, &batch, model);
                wave.push((ReplicaId::from(i), to, batch));
            }
        }
        rm.workload_nanos += t_route.elapsed().as_nanos() as u64;
        Self::charge_cpu(rm, &cpu, threads);
        wave
    }

    /// Run one round: apply this round's keyed ops, synchronize every
    /// object, deliver per-destination batches (and push-pull replies) to
    /// quiescence, snapshot memory — four phases, each parallelized
    /// across nodes.
    ///
    /// `ops_per_node` may be *shorter* than the current node count:
    /// replicas that joined after the trace was materialized simply
    /// execute no workload ops (they still synchronize). It must never
    /// be longer.
    pub fn step(&mut self, ops_per_node: &[Vec<KeyedOp<K, C>>]) {
        assert!(
            ops_per_node.len() <= self.nodes.len(),
            "ops for {} nodes but the cluster has {}",
            ops_per_node.len(),
            self.nodes.len()
        );
        let mut rm = RoundMetrics::default();
        if let Some(o) = &self.obs {
            o.obs.clock.advance_to(self.round as u64 + 1);
            o.obs.trace(
                crdt_obs::CLUSTER_NODE,
                EventKind::SyncRoundStart,
                self.round as u64,
                0,
            );
        }
        let (model, threads) = (self.cfg.model, self.threads);
        let topo = &self.topo;

        // Phase 1: local operations, routed to their object, in parallel
        // across nodes.
        let cpu: Vec<u64> = par_map(&mut self.nodes, threads, |i, replica| {
            if !topo.is_alive(ReplicaId::from(i)) {
                return 0;
            }
            let t0 = Instant::now();
            for (key, op) in ops_per_node.get(i).map_or(&[][..], Vec::as_slice) {
                replica.update(key.clone(), op);
            }
            t0.elapsed().as_nanos() as u64
        });
        Self::charge_cpu(&mut rm, &cpu, threads);

        // Phase 2: per-object synchronization at every live node, in
        // parallel; each node coalesces everything bound for one
        // neighbor into a single batch frame. Senders address their full
        // neighbor list — crashes and cuts are not learned synchronously;
        // undeliverable frames are discarded in phase 3.
        let sync_out: Vec<PhaseOutput<K>> = par_map(&mut self.nodes, threads, |i, replica| {
            let node = ReplicaId::from(i);
            if !topo.is_alive(node) {
                return (0, Vec::new());
            }
            let t0 = Instant::now();
            let batches = replica.sync_step(topo.base().neighbors(node));
            (t0.elapsed().as_nanos() as u64, batches)
        });
        let mut wave = Self::ship(&mut rm, sync_out, threads, &model);

        // Phase 3: delivery waves until quiescence. Each recipient
        // absorbs its inbox (in deterministic (sender, emission) order)
        // on exactly one thread; push-pull replies re-batch per
        // destination and ride the next wave. Frames to down nodes or
        // across an active partition are dropped.
        while !wave.is_empty() {
            let t_route = Instant::now();
            let mut inboxes: Vec<Vec<BatchEnvelope<K>>> = Vec::with_capacity(self.nodes.len());
            inboxes.resize_with(self.nodes.len(), Vec::new);
            for (from, to, batch) in wave.drain(..) {
                if !topo.link_open(from, to) {
                    self.undeliverable += 1;
                    if let Some(o) = &self.obs {
                        o.undeliverable.inc();
                    }
                    continue;
                }
                inboxes[to.index()].push(batch);
            }
            rm.workload_nanos += t_route.elapsed().as_nanos() as u64;
            let inboxes = Mutex::new(inboxes);
            let replies: Vec<PhaseOutput<K>> = par_map(&mut self.nodes, threads, |i, replica| {
                let inbox = std::mem::take(&mut inboxes.lock().expect("inbox lock")[i]);
                if inbox.is_empty() {
                    return (0, Vec::new());
                }
                let t0 = Instant::now();
                // Every reply bound for one peer in this wave rides one
                // frame, whichever inbound batch it answers.
                let mut batches: BTreeMap<ReplicaId, BatchEnvelope<K>> = BTreeMap::new();
                for batch in inbox {
                    let out = replica
                        .absorb(batch)
                        .expect("uniform-protocol run cannot mismatch kinds");
                    for (to, reply) in out {
                        batches.entry(to).or_default().entries.extend(reply.entries);
                    }
                }
                (
                    t0.elapsed().as_nanos() as u64,
                    batches.into_iter().collect(),
                )
            });
            wave = Self::ship(&mut rm, replies, threads, &model);
        }

        // Phase 4: memory snapshot over live nodes (a down process
        // occupies no memory), in parallel. The store charges key
        // storage to metadata; this runner charges it to CRDT bytes, per
        // object, like the generic per-object reference — parity depends
        // on it.
        let mems: Vec<MemoryUsage> = par_map(&mut self.nodes, threads, |i, replica| {
            if !topo.is_alive(ReplicaId::from(i)) {
                return MemoryUsage::default();
            }
            let mut m = replica.memory();
            let keys: u64 = replica.keys().map(|k| k.payload_bytes(&model)).sum();
            m.crdt_bytes += keys;
            m.meta_bytes -= keys;
            m
        });
        for m in mems {
            rm.memory.crdt_elements += m.crdt_elements;
            rm.memory.crdt_bytes += m.crdt_bytes;
            rm.memory.meta_elements += m.meta_elements;
            rm.memory.meta_bytes += m.meta_bytes;
        }

        if let Some(o) = &self.obs {
            o.rounds.inc();
            o.obs.trace(
                crdt_obs::CLUSTER_NODE,
                EventKind::SyncRoundEnd,
                self.round as u64,
                rm.messages,
            );
        }
        self.metrics.push_round(rm);
        self.round += 1;
    }

    /// Have all **live** replicas of every object reached the same state?
    /// (Key sets must match: missing key = `⊥` ≠ non-`⊥`.)
    pub fn converged(&self) -> bool {
        let alive = self.topo.alive_nodes();
        let Some((&first, rest)) = alive.split_first() else {
            return true;
        };
        let reference = &self.nodes[first.index()];
        rest.iter()
            .all(|&id| self.nodes[id.index()].iter().eq(reference.iter()))
    }

    /// Keep synchronizing without new ops until convergence (or give up
    /// after `max_rounds`). Returns the extra rounds taken (`None` once
    /// the budget is exhausted, even if the final step happened to
    /// converge) — the contract the parity property test compares round
    /// for round.
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

    /// Run `rounds[r][node]` keyed operations round by round (the shape
    /// `crdt-workloads`' `RetwisTrace` materializes).
    pub fn run_rounds(&mut self, rounds: &[Vec<Vec<KeyedOp<K, C>>>]) {
        for ops in rounds {
            self.step(ops);
        }
    }

    /// Drive a [`crate::ScenarioSchedule`]'s events against the trace:
    /// events scheduled at round `r` apply before round `r` runs; events
    /// at or past the trace length fire after the last round.
    ///
    /// # Panics
    ///
    /// On [`ScenarioEvent::LinkFault`]/[`ScenarioEvent::LinkHeal`] —
    /// link-level fault overlays need the seeded [`crate::Network`]
    /// fabric; drive those scenarios with [`crate::DynRunner`].
    pub fn run_schedule(
        &mut self,
        rounds: &[Vec<Vec<KeyedOp<K, C>>>],
        schedule: &crate::scenario::ScenarioSchedule,
    ) {
        for (r, ops) in rounds.iter().enumerate() {
            for event in schedule.events_at(r) {
                self.apply_event(event);
            }
            self.step(ops);
        }
        let boundary: Vec<ScenarioEvent> = schedule.events_from(rounds.len()).cloned().collect();
        for event in boundary {
            self.apply_event(&event);
        }
    }

    // -----------------------------------------------------------------
    // Fault & membership control — node-level, across all objects
    // -----------------------------------------------------------------

    /// Apply one scenario event at node granularity. Restarts follow the
    /// repair policy of the scenario layer: a durable restart of a
    /// loss-recovering protocol needs no help; everything else is
    /// stitched back through a live peer, per object.
    pub fn apply_event(&mut self, event: &ScenarioEvent) {
        match event {
            ScenarioEvent::Partition { groups } => self.set_partition(groups),
            ScenarioEvent::Heal => self.heal_partition(),
            ScenarioEvent::Crash { node, durable } => {
                self.crash_node(ReplicaId::from(*node), *durable);
            }
            ScenarioEvent::Restart { node } => {
                let id = ReplicaId::from(*node);
                self.topo.set_alive(id, true);
                if self.durability[*node] && self.cfg.protocol.recovers_from_loss() {
                    return;
                }
                let peer = {
                    let m = &self.topo;
                    m.reachable_neighbors(id)
                        .into_iter()
                        .next()
                        .or_else(|| m.alive_nodes().into_iter().find(|&p| p != id))
                };
                if let Some(peer) = peer {
                    self.repair_pair(id, peer);
                }
            }
            ScenarioEvent::Join { links, bootstrap } => {
                let links: Vec<ReplicaId> = links.iter().map(|&l| ReplicaId::from(l)).collect();
                self.join_node(&links, Some(ReplicaId::from(*bootstrap)));
            }
            ScenarioEvent::LinkFault { .. } | ScenarioEvent::LinkHeal { .. } => {
                panic!(
                    "link-level fault overlays need the seeded Network fabric; \
                     drive this schedule with DynRunner/run_scenario"
                );
            }
        }
    }

    /// Crash `node`: while down it executes no phases and every frame
    /// addressed to it is discarded. `durable: false` wipes its entire
    /// keyspace — a cold restart starts from `⊥`.
    pub fn crash_node(&mut self, node: ReplicaId, durable: bool) {
        self.topo.set_alive(node, false);
        self.durability[node.index()] = durable;
        if !durable {
            self.nodes[node.index()].reset();
        }
        if let Some(o) = &self.obs {
            o.obs.trace(
                node.index() as u64,
                EventKind::Crash,
                node.index() as u64,
                durable as u64,
            );
        }
    }

    /// Bring a crashed `node` back; with `bootstrap = Some(peer)` the
    /// pair repairs every object (both directions), charged to
    /// [`ShardedEngineRunner::repair_stats`].
    pub fn restart_node(&mut self, node: ReplicaId, bootstrap: Option<ReplicaId>) {
        self.topo.set_alive(node, true);
        if let Some(o) = &self.obs {
            o.obs.trace(
                node.index() as u64,
                EventKind::Restart,
                node.index() as u64,
                bootstrap.is_some() as u64,
            );
        }
        if let Some(peer) = bootstrap {
            self.repair_pair(node, peer);
        }
    }

    /// Grow the cluster by one node linked to `links`, with an empty
    /// keyspace, bootstrapped per object from `bootstrap` when given.
    /// Returns the joiner's id.
    pub fn join_node(&mut self, links: &[ReplicaId], bootstrap: Option<ReplicaId>) -> ReplicaId {
        let new = self.topo.join(links);
        let n = self.topo.len();
        self.metrics.n_nodes = n;
        self.durability.push(true);
        // Existing replicas learn the new size before the joiner is heard
        // from (Scuttlebutt-GC safe-delete safety).
        for replica in &mut self.nodes {
            replica.set_system_size(n);
        }
        self.nodes
            .push(StoreReplica::with_params(new, self.cfg, Params::new(n)));
        if let Some(peer) = bootstrap {
            self.repair_pair(new, peer);
        }
        new
    }

    /// Install a partition (see [`DynamicTopology::set_partition`]).
    pub fn set_partition(&mut self, groups: &[Vec<usize>]) {
        self.topo.set_partition(groups);
        if let Some(o) = &self.obs {
            o.obs.trace(
                crdt_obs::CLUSTER_NODE,
                EventKind::Partition,
                1,
                groups.len() as u64,
            );
        }
    }

    /// Heal the active partition and stitch the sides back together —
    /// the same policy as [`crate::DynRunner::heal_partition`], applied
    /// per object: loss-recovering kinds get nothing, δ-group kinds
    /// repair one representative per side, the op-based middleware
    /// reconciles every live node.
    pub fn heal_partition(&mut self) {
        let reps = self.topo.side_representatives();
        self.topo.clear_partition();
        if let Some(o) = &self.obs {
            o.obs.trace(
                crdt_obs::CLUSTER_NODE,
                EventKind::Partition,
                0,
                reps.len() as u64,
            );
        }
        if reps.len() < 2 || self.cfg.protocol.recovers_from_loss() {
            return;
        }
        let peers: Vec<ReplicaId> = if self.cfg.protocol.accepts_raw_delta() {
            reps[1..].to_vec()
        } else {
            self.topo
                .alive_nodes()
                .into_iter()
                .filter(|&n| n != reps[0])
                .collect()
        };
        for _pass in 0..2 {
            for &peer in &peers {
                self.repair_pair(reps[0], peer);
            }
        }
    }

    /// Pairwise repair between two live replicas, per object, through
    /// `delta_store::repair_pair` — the same session
    /// `delta_store::Cluster::merkle_repair` runs. δ-group kinds run the
    /// §VI digest handshake (after a Merkle descent once either keyspace
    /// reaches `crdt_sync::MERKLE_REPAIR_THRESHOLD` objects); repaired
    /// deltas re-enter the ordinary receive path, so novelty keeps
    /// propagating. The remaining kinds bootstrap per object, protocol
    /// metadata included. Traffic lands in
    /// [`ShardedEngineRunner::repair_stats`].
    pub fn repair_pair(&mut self, a: ReplicaId, b: ReplicaId) {
        let mode = if self.cfg.protocol.accepts_raw_delta() {
            RepairMode::merkle()
        } else {
            RepairMode::Bootstrap
        };
        let PairRepair { stats, descent } =
            delta_store::repair_pair(&mut self.nodes, a.index(), b.index(), mode);
        self.repair += stats;
        if let Some(o) = &self.obs {
            o.repair.pairs.inc();
            if let Some(descent) = descent {
                o.repair.charge(&descent);
                o.obs.trace(
                    a.index() as u64,
                    EventKind::RepairHop,
                    descent.rounds,
                    descent.total_bytes(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSchedule;
    use crdt_types::{GSet, GSetOp};

    type R = ShardedEngineRunner<u32, GSet<u64>>;
    type RoundOps = Vec<Vec<KeyedOp<u32, GSet<u64>>>>;

    fn keyed(n_nodes: usize, per_node: &[(usize, u32, u64)]) -> RoundOps {
        let mut out = vec![Vec::new(); n_nodes];
        for &(node, key, elem) in per_node {
            out[node].push((key, GSetOp::Add(elem)));
        }
        out
    }

    #[test]
    fn every_kind_converges_at_object_granularity() {
        for kind in ProtocolKind::ALL {
            let mut r: R = ShardedEngineRunner::new(
                kind,
                Topology::partial_mesh(6, 4),
                SizeModel::compact(),
                3,
            );
            for round in 0..4u64 {
                let ops: Vec<Vec<KeyedOp<u32, GSet<u64>>>> = (0..6)
                    .map(|node| {
                        vec![
                            ((node % 3) as u32, GSetOp::Add(round * 6 + node as u64)),
                            (100, GSetOp::Add(round * 6 + node as u64)),
                        ]
                    })
                    .collect();
                r.step(&ops);
            }
            r.run_to_convergence(64)
                .unwrap_or_else(|| panic!("{kind} failed to converge"));
            assert_eq!(r.objects_at(ReplicaId(0)), 4, "{kind}");
            assert_eq!(
                r.object_state(ReplicaId(5), &100).unwrap().len(),
                24,
                "{kind} hot object lost elements"
            );
        }
    }

    #[test]
    fn batching_sends_one_frame_per_link_regardless_of_object_count() {
        // 4-node full mesh, every node updates 50 distinct objects: the
        // round must emit 4 × 3 = 12 frames, not 600 envelopes' worth.
        let mut r: R = ShardedEngineRunner::new(
            ProtocolKind::BpRr,
            Topology::full_mesh(4),
            SizeModel::compact(),
            2,
        );
        let ops: Vec<Vec<KeyedOp<u32, GSet<u64>>>> = (0..4)
            .map(|node| {
                (0..50)
                    .map(|k| (k as u32, GSetOp::Add((node * 50 + k) as u64)))
                    .collect()
            })
            .collect();
        r.step(&ops);
        let round = &r.metrics().rounds[0];
        assert_eq!(round.messages, 12, "one frame per directed link");
        assert_eq!(round.envelopes, 4 * 3 * 50, "every object still ships");
        assert!(r.metrics().batch_amortization() > 40.0);
    }

    #[test]
    fn thread_count_does_not_change_accounting() {
        let run = |threads: usize| {
            let mut r: R = ShardedEngineRunner::new(
                ProtocolKind::Scuttlebutt,
                Topology::partial_mesh(9, 4),
                SizeModel::compact(),
                threads,
            );
            for round in 0..5u64 {
                let ops: Vec<Vec<KeyedOp<u32, GSet<u64>>>> = (0..9)
                    .map(|node| vec![((node % 4) as u32, GSetOp::Add(round * 9 + node as u64))])
                    .collect();
                r.step(&ops);
            }
            r.run_to_convergence(64).expect("converges");
            let m = r.metrics();
            (
                m.total_elements(),
                m.total_bytes(),
                m.total_messages(),
                m.total_envelopes(),
                r.object_state(ReplicaId(0), &0).unwrap().clone(),
            )
        };
        let (e1, b1, m1, v1, s1) = run(1);
        let (e4, b4, m4, v4, s4) = run(4);
        let (e16, b16, m16, v16, s16) = run(16);
        assert_eq!((e1, b1, m1, v1), (e4, b4, m4, v4));
        assert_eq!((e4, b4, m4, v4), (e16, b16, m16, v16));
        assert_eq!(s1, s4);
        assert_eq!(s4, s16);
    }

    #[test]
    fn partition_heal_repairs_every_object() {
        let schedule = ScenarioSchedule::new("cut", 8).partition_during(2..6, vec![vec![0, 1]]);
        let mut r: R = ShardedEngineRunner::new(
            ProtocolKind::BpRr,
            Topology::full_mesh(4),
            SizeModel::compact(),
            2,
        );
        let rounds: Vec<RoundOps> = (0..8u64)
            .map(|round| {
                (0..4)
                    .map(|node| vec![(node as u32 % 2, GSetOp::Add(round * 4 + node as u64))])
                    .collect()
            })
            .collect();
        r.run_schedule(&rounds, &schedule);
        assert!(r.undeliverable() > 0, "cross-cut frames were dropped");
        assert!(
            r.repair_stats().payload_elements > 0,
            "heal repaired objects"
        );
        r.run_to_convergence(32).expect("re-converges");
    }

    #[test]
    fn non_durable_crash_restart_rebuilds_the_keyspace() {
        for kind in [
            ProtocolKind::BpRr,
            ProtocolKind::Scuttlebutt,
            ProtocolKind::OpBased,
        ] {
            let mut r: R =
                ShardedEngineRunner::new(kind, Topology::full_mesh(4), SizeModel::compact(), 2);
            r.step(&keyed(4, &[(0, 1, 10), (1, 2, 20), (2, 3, 30)]));
            r.run_to_convergence(16).expect("warm-up");
            r.crash_node(ReplicaId(3), false);
            assert_eq!(r.objects_at(ReplicaId(3)), 0, "{kind}: cold crash wipes");
            r.step(&keyed(4, &[(0, 1, 11)]));
            r.restart_node(ReplicaId(3), Some(ReplicaId(0)));
            r.run_to_convergence(32)
                .unwrap_or_else(|| panic!("{kind} did not re-converge"));
            assert_eq!(r.objects_at(ReplicaId(3)), 3, "{kind}: keyspace restored");
        }
    }

    #[test]
    fn join_bootstraps_all_objects() {
        let mut r: R = ShardedEngineRunner::new(
            ProtocolKind::BpRr,
            Topology::full_mesh(3),
            SizeModel::compact(),
            2,
        );
        r.step(&keyed(3, &[(0, 1, 1), (1, 2, 2)]));
        r.run_to_convergence(16).expect("warm-up");
        let new = r.join_node(&[ReplicaId(0), ReplicaId(2)], Some(ReplicaId(1)));
        assert_eq!(new, ReplicaId(3));
        assert_eq!(r.objects_at(new), 2, "joiner got the whole keyspace");
        let ops = keyed(4, &[(3, 2, 99)]);
        r.step(&ops);
        r.run_to_convergence(16).expect("joiner participates");
        assert!(r.object_state(ReplicaId(0), &2).unwrap().contains(&99));
    }

    #[test]
    fn mid_trace_join_runs_with_a_shorter_trace() {
        // A Join mid-schedule grows the cluster past the materialized
        // trace's node count; later rounds must still run (the joiner
        // executes no workload ops, but synchronizes).
        let schedule = ScenarioSchedule::new("grow", 6).at(
            3,
            ScenarioEvent::Join {
                links: vec![0, 2],
                bootstrap: 0,
            },
        );
        let mut r: R = ShardedEngineRunner::new(
            ProtocolKind::BpRr,
            Topology::full_mesh(3),
            SizeModel::compact(),
            2,
        );
        let rounds: Vec<RoundOps> = (0..6u64)
            .map(|round| {
                (0..3)
                    .map(|node| vec![(node as u32, GSetOp::Add(round * 3 + node as u64))])
                    .collect()
            })
            .collect();
        r.run_schedule(&rounds, &schedule);
        r.run_to_convergence(16).expect("grown cluster converges");
        assert_eq!(r.membership().len(), 4);
        assert_eq!(r.objects_at(ReplicaId(3)), 3, "joiner caught up");
    }

    #[test]
    fn objects_sync_independently() {
        let mut r: R = ShardedEngineRunner::new(
            ProtocolKind::BpRr,
            Topology::line(3),
            SizeModel::compact(),
            1,
        );
        // Node 0 updates object 1; node 2 updates object 2.
        r.step(&keyed(3, &[(0, 1, 100), (2, 2, 200)]));
        let extra = r.run_to_convergence(10).expect("converges");
        assert!(extra >= 1);
        assert_eq!(r.object_state(ReplicaId(1), &1).unwrap().len(), 1);
        assert_eq!(r.object_state(ReplicaId(1), &2).unwrap().len(), 1);
        assert_eq!(r.objects_at(ReplicaId(0)), 2);
    }

    #[test]
    fn classic_drops_redundant_cold_objects() {
        // One object updated at one node, propagating through a cycle:
        // classic's inflation check drops the second-path copy, so per
        // object granularity keeps classic near-optimal at low contention.
        let run = |kind: ProtocolKind| {
            let mut r: R =
                ShardedEngineRunner::new(kind, Topology::ring(4), SizeModel::compact(), 1);
            r.step(&keyed(4, &[(0, 7, 1)]));
            r.run_to_convergence(10).unwrap();
            r.metrics().total_elements()
        };
        let (c, b) = (run(ProtocolKind::Classic), run(ProtocolKind::BpRr));
        // A single uncontended update: classic ≈ BP+RR (within 2x).
        assert!(c <= b * 2, "classic {c} vs bp+rr {b}");
    }

    #[test]
    fn classic_snowballs_on_hot_objects() {
        // All nodes update the SAME object every round on a cyclic mesh:
        // the paper's high-contention regime. Classic must transmit far
        // more than BP+RR.
        let run = |kind: ProtocolKind| {
            let mut r: R = ShardedEngineRunner::new(
                kind,
                Topology::partial_mesh(8, 4),
                SizeModel::compact(),
                1,
            );
            for round in 0..12u64 {
                let ops: RoundOps = (0..8)
                    .map(|node| vec![(1u32, GSetOp::Add(round * 8 + node))])
                    .collect();
                r.step(&ops);
            }
            r.run_to_convergence(40).expect("converges");
            r.into_metrics().total_elements()
        };
        let classic = run(ProtocolKind::Classic);
        let bprr = run(ProtocolKind::BpRr);
        assert!(
            classic > bprr * 3,
            "hot object must separate classic ({classic}) from BP+RR ({bprr})"
        );
    }

    #[test]
    fn memory_counts_all_shards() {
        let mut r: R = ShardedEngineRunner::new(
            ProtocolKind::Classic,
            Topology::line(2),
            SizeModel::compact(),
            1,
        );
        r.step(&keyed(2, &[(0, 1, 10), (0, 2, 20)]));
        let m = &r.metrics().rounds[0].memory;
        assert!(m.crdt_elements >= 2);
        assert!(m.meta_elements >= 2, "both deltas buffered");
    }

    #[test]
    #[should_panic(expected = "link-level fault overlays")]
    fn link_faults_are_rejected() {
        let mut r: R = ShardedEngineRunner::new(
            ProtocolKind::BpRr,
            Topology::full_mesh(4),
            SizeModel::compact(),
            1,
        );
        r.apply_event(&ScenarioEvent::LinkHeal { a: 0, b: 1 });
    }
}
