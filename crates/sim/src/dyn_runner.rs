//! The engine-layer twin of [`crate::Runner`]: one simulation driver for
//! **runtime-selected** protocols.
//!
//! [`crate::Runner`] is monomorphized per protocol (`Runner<C, P>`), which
//! is perfect for experiments but means every binary must instantiate
//! every protocol it might run. `DynRunner` instead drives
//! `Box<dyn SyncEngine>` replicas built by [`crdt_sync::build_engine`]
//! from a [`ProtocolKind`] value — the same replica/network substrate, the
//! protocol chosen by a CLI flag. Messages are [`WireEnvelope`]s carrying
//! truly encoded payloads, so this runner also exercises the full
//! encode/decode path a production transport would.
//!
//! The workload side stays typed (`Workload<C>`): operations are encoded
//! at the boundary via [`OpBytes`]. Round structure, metric collection and
//! convergence driving mirror [`crate::Runner`] exactly — the parity
//! property test in `crdt-sync` relies on that.

use std::time::Instant;

use crdt_lattice::{ReplicaId, SizeModel, WireEncode};
use crdt_sync::digest::{digest_repair_deltas, PairSyncStats};
use crdt_sync::{
    build_engine_with_model, BufferPool, DeltaMsg, Measured, OpBytes, Params, ProtocolKind,
    SyncEngine, WireAccounting, WireEnvelope,
};
use crdt_types::Crdt;

use crate::metrics::{RoundMetrics, RunMetrics};
use crate::network::{LinkFault, Network, NetworkConfig};
use crate::runner::Workload;
use crate::topology::{DynamicTopology, Topology};

/// Simulation driver for one runtime-selected protocol over one topology.
///
/// ```
/// use crdt_sim::{DynRunner, NetworkConfig, Topology};
/// use crdt_sync::ProtocolKind;
/// use crdt_lattice::{ReplicaId, SizeModel};
/// use crdt_types::{GSet, GSetOp};
///
/// let kind: ProtocolKind = "bp_rr".parse().unwrap();
/// let mut runner: DynRunner<GSet<u64>> = DynRunner::new(
///     kind,
///     Topology::ring(4),
///     NetworkConfig::reliable(1),
///     SizeModel::compact(),
/// );
/// let mut workload = |node: ReplicaId, round: usize| {
///     vec![GSetOp::Add((round * 4 + node.index()) as u64)]
/// };
/// runner.run(&mut workload, 3);
/// runner.run_to_convergence(16).expect("converges");
/// assert_eq!(runner.protocol_name(), "delta+BP+RR");
/// ```
#[derive(Debug)]
pub struct DynRunner<C: Crdt> {
    kind: ProtocolKind,
    topo: DynamicTopology,
    nodes: Vec<Box<dyn SyncEngine>>,
    net: Network<WireEnvelope>,
    metrics: RunMetrics,
    params: Params,
    model: SizeModel,
    round: usize,
    /// Messages addressed to down nodes or across an active partition,
    /// discarded at delivery time.
    undeliverable: u64,
    /// Cumulative out-of-band recovery traffic (digest repair and
    /// bootstrap transfers).
    repair: PairSyncStats,
    /// Recycled encode scratch shared by every engine this (sequential)
    /// runner drives — payload buffers are reused round after round.
    pool: BufferPool,
    _crdt: core::marker::PhantomData<fn() -> C>,
}

impl<C> DynRunner<C>
where
    C: Crdt + WireEncode + 'static,
    C::Op: WireEncode + 'static,
{
    /// Build a runner with default parameters: one engine per topology
    /// node, all of protocol `kind`.
    pub fn new(
        kind: ProtocolKind,
        topology: Topology,
        net_cfg: NetworkConfig,
        model: SizeModel,
    ) -> Self {
        Self::with_params(kind, topology, net_cfg, model, None)
    }

    /// Build a runner, overriding the [`Params`] knobs (`fan_out`,
    /// `sync_interval`). `params.n_nodes` is always taken from the
    /// topology.
    pub fn with_params(
        kind: ProtocolKind,
        topology: Topology,
        net_cfg: NetworkConfig,
        model: SizeModel,
        params: Option<Params>,
    ) -> Self {
        let mut params = params.unwrap_or_else(|| Params::new(topology.len()));
        params.n_nodes = topology.len();
        let nodes = topology
            .nodes()
            .map(|id| build_engine_with_model::<C>(kind, id, &params, model))
            .collect();
        let n = topology.len();
        DynRunner {
            kind,
            topo: DynamicTopology::new(topology),
            nodes,
            net: Network::new(net_cfg),
            metrics: RunMetrics::new(n),
            params,
            model,
            round: 0,
            undeliverable: 0,
            repair: PairSyncStats::default(),
            pool: BufferPool::new(),
            _crdt: core::marker::PhantomData,
        }
    }

    /// The protocol every node runs.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// The protocol's display name.
    pub fn protocol_name(&self) -> &'static str {
        self.kind.name()
    }

    /// Access a node's engine.
    pub fn node(&self, id: ReplicaId) -> &dyn SyncEngine {
        self.nodes[id.index()].as_ref()
    }

    /// A node's lattice state, typed (`None` if `T` is not the CRDT this
    /// runner was built over).
    pub fn state_of<T: 'static>(&self, id: ReplicaId) -> Option<&T> {
        self.nodes[id.index()].state_any().downcast_ref::<T>()
    }

    /// The (base) topology driving this run.
    pub fn topology(&self) -> &Topology {
        self.topo.base()
    }

    /// The live membership/partition view.
    pub fn membership(&self) -> &DynamicTopology {
        &self.topo
    }

    /// The collected metrics so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Consume the runner, returning the metrics.
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics
    }

    /// Messages discarded because the recipient was down or unreachable
    /// across a partition, plus messages the fabric itself dropped
    /// (global `drop_prob` and per-link faults).
    pub fn undeliverable(&self) -> u64 {
        self.undeliverable + self.net.dropped
    }

    /// Cumulative out-of-band recovery traffic (digest repairs and
    /// bootstrap state transfers).
    pub fn repair_stats(&self) -> PairSyncStats {
        self.repair
    }

    /// Have all **live** replicas reached the same lattice state?
    pub fn converged(&self) -> bool {
        let alive = self.topo.alive_nodes();
        alive
            .windows(2)
            .all(|w| self.nodes[w[0].index()].state_eq(self.nodes[w[1].index()].as_ref()))
    }

    /// Run `rounds` rounds of workload + synchronization.
    pub fn run(&mut self, workload: &mut impl Workload<C>, rounds: usize) {
        for _ in 0..rounds {
            self.step(workload);
        }
    }

    /// The neighbors node `id` synchronizes with this round: everyone,
    /// unless `params.fan_out` caps the count — then a deterministic
    /// rotating window, so capped replicas still address every neighbor
    /// over successive sync steps.
    ///
    /// The window advances by *sync step* (`round / sync_interval`), not
    /// by raw round: with an interval of `s`, only every `s`-th round
    /// syncs, and stepping the window by rounds would skip the same
    /// neighbor indices forever whenever `s` and the neighbor count share
    /// a factor.
    fn sync_targets(&self, id: ReplicaId) -> Vec<ReplicaId> {
        let all = self.topo.base().neighbors(id);
        match self.params.fan_out {
            Some(f) if f < all.len() => {
                let step = self.round / self.params.sync_interval.max(1);
                (0..f).map(|i| all[(step * f + i) % all.len()]).collect()
            }
            _ => all.to_vec(),
        }
    }

    /// Run one round: workload ops, one synchronization step per node
    /// (respecting `sync_interval`), delivery to quiescence, then a memory
    /// snapshot — the same four phases as [`crate::Runner::step`].
    pub fn step(&mut self, workload: &mut impl Workload<C>) {
        let mut rm = RoundMetrics::default();

        // Phase 1: update operations, encoded across the erased boundary.
        // Down nodes execute nothing.
        for id in 0..self.nodes.len() {
            let node_id = ReplicaId::from(id);
            if !self.topo.is_alive(node_id) {
                continue;
            }
            let t_draw = Instant::now();
            let ops = workload.ops(node_id, self.round);
            rm.workload_nanos += t_draw.elapsed().as_nanos() as u64;
            for op in ops {
                let bytes = OpBytes::encode(&op);
                let t0 = Instant::now();
                self.nodes[id]
                    .on_op(&bytes)
                    .expect("engine rejected its own CRDT's op encoding");
                rm.cpu_nanos += t0.elapsed().as_nanos() as u64;
            }
        }

        // Phase 2: synchronization step (skipped on off rounds when a
        // sync_interval > 1 is configured; buffers keep accumulating).
        // Live senders still address their *full* neighbor list — nodes
        // do not learn about crashes or cuts synchronously; undeliverable
        // traffic is discarded in phase 3, like a real fabric.
        if self.round.is_multiple_of(self.params.sync_interval.max(1)) {
            for id in 0..self.nodes.len() {
                let node_id = ReplicaId::from(id);
                if !self.topo.is_alive(node_id) {
                    continue;
                }
                let targets = self.sync_targets(node_id);
                let t0 = Instant::now();
                let out = self.nodes[id].on_sync_pooled(&targets, &mut self.pool);
                rm.cpu_nanos += t0.elapsed().as_nanos() as u64;
                for env in out {
                    self.account(&mut rm, &env);
                    self.net.send(env.from, env.to, env);
                }
            }
        }

        // Phase 3: deliver to quiescence (push-pull replies included).
        // Deliveries to down nodes, or across an active partition, are
        // dropped here.
        while !self.net.is_idle() {
            for delivery in self.net.flush() {
                let to = delivery.to;
                if !self.topo.link_open(delivery.from, to) {
                    self.undeliverable += 1;
                    continue;
                }
                let t0 = Instant::now();
                let replies = self.nodes[to.index()]
                    .on_msg_pooled(delivery.msg, &mut self.pool)
                    .expect("uniform-protocol run cannot mismatch kinds");
                rm.cpu_nanos += t0.elapsed().as_nanos() as u64;
                for reply in replies {
                    self.account(&mut rm, &reply);
                    self.net.send(reply.from, reply.to, reply);
                }
            }
        }

        // Phase 4: end-of-round memory snapshot (live nodes — a down
        // process occupies no memory, durable or not).
        for (id, node) in self.nodes.iter().enumerate() {
            if !self.topo.is_alive(ReplicaId::from(id)) {
                continue;
            }
            let m = node.memory();
            rm.memory.crdt_elements += m.crdt_elements;
            rm.memory.crdt_bytes += m.crdt_bytes;
            rm.memory.meta_elements += m.meta_elements;
            rm.memory.meta_bytes += m.meta_bytes;
        }

        // One worker did everything: the critical path is the total work.
        rm.critical_path_nanos = rm.cpu_nanos;
        self.metrics.push_round(rm);
        self.round += 1;
        self.net.advance_round();
    }

    fn account(&self, rm: &mut RoundMetrics, env: &WireEnvelope) {
        rm.messages += 1;
        rm.envelopes += 1;
        rm.payload_elements += env.accounting.payload_elements;
        rm.payload_bytes += env.accounting.payload_bytes;
        rm.metadata_bytes += env.accounting.metadata_bytes;
    }

    /// After the workload ends, keep synchronizing (no new ops) until all
    /// replicas agree, up to `max_rounds` extra rounds. Returns the extra
    /// rounds taken, or `None` if convergence was not reached.
    pub fn run_to_convergence(&mut self, max_rounds: usize) -> Option<usize> {
        let mut idle = |_: ReplicaId, _: usize| -> Vec<C::Op> { Vec::new() };
        for extra in 0..=max_rounds {
            if self.converged() {
                return Some(extra);
            }
            self.step(&mut idle);
        }
        self.converged().then_some(max_rounds)
    }

    // -----------------------------------------------------------------
    // Fault & membership control (the scenario layer drives these)
    // -----------------------------------------------------------------

    /// Crash `node`. While down it executes no phases and everything
    /// addressed to it is discarded. `durable: true` models a process
    /// crash with intact storage (the engine's state survives for the
    /// restart); `durable: false` wipes the engine immediately — a cold
    /// restart starts from `⊥` and should be pointed at a live peer via
    /// [`DynRunner::restart_node`]'s `bootstrap`.
    pub fn crash_node(&mut self, node: ReplicaId, durable: bool) {
        self.topo.set_alive(node, false);
        if !durable {
            self.nodes[node.index()].reset();
        }
    }

    /// Bring a crashed `node` back. With `bootstrap = Some(peer)` the
    /// restarted node and the peer exchange state snapshots out-of-band
    /// (both directions — a durable restart may hold novelty the cluster
    /// lost track of), charged to [`DynRunner::repair_stats`].
    pub fn restart_node(&mut self, node: ReplicaId, bootstrap: Option<ReplicaId>) {
        self.topo.set_alive(node, true);
        if let Some(peer) = bootstrap {
            self.bootstrap_pair(node, peer);
        }
    }

    /// Grow the cluster by one node linked to `links`, running a fresh
    /// engine of the same protocol, bootstrapped from `bootstrap` when
    /// given. Returns the joiner's id.
    pub fn join_node(&mut self, links: &[ReplicaId], bootstrap: Option<ReplicaId>) -> ReplicaId {
        let new = self.topo.join(links);
        self.params.n_nodes = self.topo.len();
        self.metrics.n_nodes = self.topo.len();
        // Existing engines must learn the new size *before* the joiner is
        // heard from: Scuttlebutt-GC's safe-delete rule would otherwise
        // prune deltas the joiner has not seen, beyond recovery.
        for node in &mut self.nodes {
            node.set_system_size(self.params.n_nodes);
        }
        self.nodes.push(build_engine_with_model::<C>(
            self.kind,
            new,
            &self.params,
            self.model,
        ));
        if let Some(peer) = bootstrap {
            self.repair_pair(new, peer);
        }
        new
    }

    /// Install a partition (each entry of `groups` is one side; unlisted
    /// nodes form the implicit last side). Cross-side traffic is
    /// discarded until [`DynRunner::heal_partition`].
    pub fn set_partition(&mut self, groups: &[Vec<usize>]) {
        self.topo.set_partition(groups);
    }

    /// Heal the active partition and stitch the sides back together: the
    /// lowest live representative of each side pairwise-repairs with the
    /// first side's representative (two passes, so every side sees every
    /// other side's novelty), using [`DynRunner::repair_pair`].
    ///
    /// Kinds that [`ProtocolKind::recovers_from_loss`] get no repair —
    /// their own metadata re-requests or retransmits what the cut
    /// swallowed, which is exactly the property the scenario experiments
    /// measure.
    pub fn heal_partition(&mut self) {
        let reps = self.topo.side_representatives();
        self.topo.clear_partition();
        if reps.len() < 2 || self.kind.recovers_from_loss() {
            return;
        }
        // δ-group kinds repair one representative per side: the injected
        // novelty re-enters their buffers and propagates to the rest of
        // each side over ordinary rounds. The op-based middleware cannot
        // re-ship a state join as operations, so every live node must be
        // reconciled directly — the honest (and expensive) price of
        // partition recovery without join semantics.
        let peers: Vec<ReplicaId> = if self.kind.accepts_raw_delta() {
            reps[1..].to_vec()
        } else {
            self.topo
                .alive_nodes()
                .into_iter()
                .filter(|&n| n != reps[0])
                .collect()
        };
        // Gather into reps[0], then scatter back out. The second pass
        // re-ships only what the earlier peers are still missing —
        // digest-driven repair sends differences, not states.
        for _pass in 0..2 {
            for &peer in &peers {
                self.repair_pair(reps[0], peer);
            }
        }
    }

    /// Overlay a fault on both directions of the edge `a ↔ b`.
    pub fn set_edge_fault(&mut self, a: ReplicaId, b: ReplicaId, fault: LinkFault) {
        self.net.set_link_fault(a, b, fault);
        self.net.set_link_fault(b, a, fault);
    }

    /// Clear any fault overlay from both directions of `a ↔ b`.
    pub fn clear_edge_fault(&mut self, a: ReplicaId, b: ReplicaId) {
        self.net.clear_link_fault(a, b);
        self.net.clear_link_fault(b, a);
    }

    /// Pairwise repair between two live replicas, the §VI mechanism:
    ///
    /// * kinds whose wire message is a bare δ-group (the delta family and
    ///   `state`) run **digest-driven** repair — only the
    ///   join-irreducibles each side is missing cross the wire, injected
    ///   through the ordinary receive path so the novelty is re-buffered
    ///   and keeps propagating to other neighbors;
    /// * the remaining kinds (anti-entropy, op-based) adopt each other's
    ///   snapshot via [`SyncEngine::bootstrap_from`] — their own recovery
    ///   metadata (vectors, delivery clocks, ack state) travels with it.
    ///
    /// Traffic is charged to [`DynRunner::repair_stats`].
    pub fn repair_pair(&mut self, a: ReplicaId, b: ReplicaId) {
        assert_ne!(a, b, "repair needs two distinct replicas");
        if self.kind.accepts_raw_delta() {
            let (delta_for_a, delta_for_b, stats) = {
                let xa = self
                    .state_of::<C>(a)
                    .expect("runner engines are built over C");
                let xb = self
                    .state_of::<C>(b)
                    .expect("runner engines are built over C");
                digest_repair_deltas(xa, xb, &self.model)
            };
            self.repair += stats;
            if !delta_for_a.is_bottom() {
                self.inject_delta(b, a, delta_for_a);
            }
            if !delta_for_b.is_bottom() {
                self.inject_delta(a, b, delta_for_b);
            }
        } else {
            self.bootstrap_pair(a, b);
        }
    }

    /// Bidirectional out-of-band snapshot exchange between `a` and `b`
    /// through the engines' bootstrap hooks.
    fn bootstrap_pair(&mut self, a: ReplicaId, b: ReplicaId) {
        assert_ne!(a, b, "bootstrap needs two distinct replicas");
        let (lo, hi) = (a.index().min(b.index()), a.index().max(b.index()));
        let (left, right) = self.nodes.split_at_mut(hi);
        let x = &mut left[lo];
        let y = &mut right[0];
        let acc1 = x
            .bootstrap_from(y.as_ref())
            .expect("uniform-protocol run cannot mismatch kinds");
        let acc2 = y
            .bootstrap_from(x.as_ref())
            .expect("uniform-protocol run cannot mismatch kinds");
        for acc in [acc1, acc2] {
            self.repair.messages += 1;
            self.repair.payload_elements += acc.payload_elements;
            self.repair.payload_bytes += acc.payload_bytes;
        }
    }

    /// Feed a repaired δ-group into `to`'s engine as if `from` had sent
    /// it, through the ordinary receive path.
    fn inject_delta(&mut self, from: ReplicaId, to: ReplicaId, delta: C) {
        let msg = DeltaMsg(delta);
        let payload = msg.to_bytes();
        let accounting = WireAccounting {
            payload_elements: msg.payload_elements(),
            payload_bytes: msg.payload_bytes(&self.model),
            metadata_bytes: msg.metadata_bytes(&self.model),
            encoded_bytes: payload.len() as u64,
        };
        let env = WireEnvelope {
            from,
            to,
            kind: self.kind,
            payload: payload.into(),
            accounting,
        };
        let replies = self.nodes[to.index()]
            .on_msg_pooled(env, &mut self.pool)
            .expect("raw delta injection matches the configured protocol");
        debug_assert!(replies.is_empty(), "delta-family kinds never reply");
    }
}

/// Convenience mirror of [`crate::run_experiment`] for the erased path:
/// run `kind` over `topology` with `workload` for `rounds` rounds, then
/// drive to convergence; panic if the replicas do not converge.
pub fn run_dyn_experiment<C>(
    kind: ProtocolKind,
    topology: Topology,
    net_cfg: NetworkConfig,
    model: SizeModel,
    workload: &mut impl Workload<C>,
    rounds: usize,
) -> RunMetrics
where
    C: Crdt + WireEncode + 'static,
    C::Op: WireEncode + 'static,
{
    let mut runner: DynRunner<C> = DynRunner::new(kind, topology, net_cfg, model);
    runner.run(workload, rounds);
    let diameter_slack = runner.topology().diameter() * 4 + 16;
    runner
        .run_to_convergence(diameter_slack)
        .unwrap_or_else(|| {
            panic!(
                "{} did not converge within {} extra rounds",
                kind, diameter_slack
            )
        });
    runner.into_metrics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_experiment, Runner};
    use crdt_sync::{BpRrDelta, ClassicDelta};
    use crdt_types::{GSet, GSetOp};

    fn unique_adds(n: usize) -> impl FnMut(ReplicaId, usize) -> Vec<GSetOp<u64>> {
        move |node: ReplicaId, round: usize| vec![GSetOp::Add((round * n + node.index()) as u64)]
    }

    #[test]
    fn every_kind_converges_on_a_mesh() {
        let n = 6;
        let rounds = 4;
        for kind in ProtocolKind::ALL {
            let topo = Topology::partial_mesh(n, 4);
            let mut runner: DynRunner<GSet<u64>> =
                DynRunner::new(kind, topo, NetworkConfig::reliable(3), SizeModel::compact());
            runner.run(&mut unique_adds(n), rounds);
            runner
                .run_to_convergence(64)
                .unwrap_or_else(|| panic!("{kind} failed to converge"));
            let state = runner.state_of::<GSet<u64>>(ReplicaId(0)).unwrap();
            assert_eq!(state.len(), n * rounds, "{kind} lost elements");
        }
    }

    /// The headline parity claim at runner level: identical schedule in,
    /// identical transmission accounting and final state out.
    #[test]
    fn dyn_runner_matches_generic_runner_exactly() {
        let n = 8;
        let rounds = 5;
        for (kind, generic) in [
            (ProtocolKind::Classic, {
                let topo = Topology::partial_mesh(n, 4);
                run_experiment::<GSet<u64>, ClassicDelta<GSet<u64>>>(
                    topo,
                    NetworkConfig::reliable(7),
                    SizeModel::compact(),
                    &mut unique_adds(n),
                    rounds,
                )
            }),
            (ProtocolKind::BpRr, {
                let topo = Topology::partial_mesh(n, 4);
                run_experiment::<GSet<u64>, BpRrDelta<GSet<u64>>>(
                    topo,
                    NetworkConfig::reliable(7),
                    SizeModel::compact(),
                    &mut unique_adds(n),
                    rounds,
                )
            }),
        ] {
            let topo = Topology::partial_mesh(n, 4);
            let erased = run_dyn_experiment::<GSet<u64>>(
                kind,
                topo,
                NetworkConfig::reliable(7),
                SizeModel::compact(),
                &mut unique_adds(n),
                rounds,
            );
            assert_eq!(erased.total_elements(), generic.total_elements(), "{kind}");
            assert_eq!(erased.total_bytes(), generic.total_bytes(), "{kind}");
            assert_eq!(erased.total_messages(), generic.total_messages(), "{kind}");
        }
    }

    #[test]
    fn fan_out_cap_still_converges_for_anti_entropy() {
        // Scuttlebutt keeps its key-delta store (nothing is cleared on
        // sync), so gossiping to one rotating peer per round is a valid
        // anti-entropy deployment — the scenario `fan_out` models.
        let n = 8;
        let params = Params::new(n).fan_out(1);
        let mut runner: DynRunner<GSet<u64>> = DynRunner::with_params(
            ProtocolKind::Scuttlebutt,
            Topology::full_mesh(n),
            NetworkConfig::reliable(5),
            SizeModel::compact(),
            Some(params),
        );
        runner.run(&mut unique_adds(n), 3);
        runner
            .run_to_convergence(64)
            .expect("capped fan-out converges");
        assert_eq!(
            runner.state_of::<GSet<u64>>(ReplicaId(0)).unwrap().len(),
            n * 3
        );
    }

    #[test]
    fn fan_out_with_sync_interval_still_addresses_every_neighbor() {
        // Regression: the rotating window must advance by sync *step*, not
        // raw round — otherwise interval 2 over an even neighbor count
        // would address the same neighbor indices forever.
        let n = 5; // full mesh → 4 neighbors, sharing factor 2 with the interval
        let params = Params::new(n).fan_out(1).sync_interval(2);
        let mut runner: DynRunner<GSet<u64>> = DynRunner::with_params(
            ProtocolKind::Scuttlebutt,
            Topology::full_mesh(n),
            NetworkConfig::reliable(9),
            SizeModel::compact(),
            Some(params),
        );
        runner.run(&mut unique_adds(n), 2);
        runner
            .run_to_convergence(64)
            .expect("window rotation reaches all neighbors");
        assert_eq!(
            runner.state_of::<GSet<u64>>(ReplicaId(0)).unwrap().len(),
            n * 2
        );
    }

    #[test]
    fn fan_out_cap_limits_messages_per_round() {
        let n = 8;
        let capped: DynRunner<GSet<u64>> = {
            let mut r = DynRunner::with_params(
                ProtocolKind::BpRr,
                Topology::full_mesh(n),
                NetworkConfig::reliable(5),
                SizeModel::compact(),
                Some(Params::new(n).fan_out(2)),
            );
            r.run(&mut unique_adds(n), 1);
            r
        };
        // Each node addressed exactly 2 of its 7 neighbors.
        assert_eq!(capped.metrics().rounds[0].messages, (n * 2) as u64);
    }

    #[test]
    fn sync_interval_batches_rounds() {
        let n = 4;
        let params = Params::new(n).sync_interval(2);
        let mut runner: DynRunner<GSet<u64>> = DynRunner::with_params(
            ProtocolKind::BpRr,
            Topology::full_mesh(n),
            NetworkConfig::reliable(5),
            SizeModel::compact(),
            Some(params),
        );
        runner.run(&mut unique_adds(n), 4);
        // Rounds 1 and 3 are off rounds: no messages recorded.
        let per_round: Vec<u64> = runner.metrics().rounds.iter().map(|r| r.messages).collect();
        assert_eq!(per_round[1], 0);
        assert_eq!(per_round[3], 0);
        assert!(per_round[0] > 0 && per_round[2] > 0);
        runner.run_to_convergence(16).expect("still converges");
    }

    #[test]
    fn mixed_protocol_state_comparison_is_type_safe() {
        let topo = Topology::ring(3);
        let a: DynRunner<GSet<u64>> = DynRunner::new(
            ProtocolKind::BpRr,
            topo.clone(),
            NetworkConfig::reliable(1),
            SizeModel::compact(),
        );
        // Engines of the same CRDT but different protocols still compare
        // states (both are at ⊥ here).
        let b: DynRunner<GSet<u64>> = DynRunner::new(
            ProtocolKind::Scuttlebutt,
            topo,
            NetworkConfig::reliable(1),
            SizeModel::compact(),
        );
        assert!(a.node(ReplicaId(0)).state_eq(b.node(ReplicaId(0))));
    }

    /// `Runner` (generic) and `DynRunner` (erased) expose the same
    /// protocol naming so experiment tables line up.
    #[test]
    fn names_agree_with_generic_runner() {
        assert_eq!(
            Runner::<GSet<u64>, BpRrDelta<GSet<u64>>>::protocol_name(),
            ProtocolKind::BpRr.name()
        );
        assert_eq!(
            Runner::<GSet<u64>, ClassicDelta<GSet<u64>>>::protocol_name(),
            ProtocolKind::Classic.name()
        );
    }
}
