//! A set of store replicas wired through a transport.

use core::fmt;
use std::collections::BTreeSet;
use std::hash::Hash;

use crdt_lattice::{ReplicaId, Sizeable, WireEncode};
use crdt_sync::digest::PairSyncStats;
use crdt_sync::Params;
use crdt_types::Crdt;

use crate::metrics::TrafficStats;
use crate::repair::{repair_pair, RepairMode};
use crate::replica::{StoreConfig, StoreReplica};
use crate::transport::{LoopbackTransport, Transport};

/// A cluster of [`StoreReplica`]s over a neighbor graph and a
/// [`Transport`], running whichever [`crdt_sync::ProtocolKind`] the
/// [`StoreConfig`] selects — the protocol is a deploy-time value, not a
/// type parameter.
///
/// The cluster drives rounds exactly like the paper's deployments: every
/// replica runs one synchronization step (shipping per-object envelope
/// batches to its neighbors), then absorbs everything the transport
/// delivered. Push-pull protocols' replies re-enter the transport and
/// complete over subsequent rounds. Traffic is accounted in
/// [`TrafficStats`].
#[derive(Debug)]
pub struct Cluster<K: Ord, C, T = LoopbackTransport<K>> {
    replicas: Vec<StoreReplica<K, C>>,
    neighbors: Vec<Vec<ReplicaId>>,
    /// Crashed replicas: excluded from rounds and convergence; traffic
    /// addressed to them is discarded.
    down: Vec<bool>,
    transport: T,
    stats: TrafficStats,
    cfg: StoreConfig,
}

/// The diagnostic outcome of [`Cluster::run_until_converged`]: enough to
/// tell from a CI log *why* a scenario failed, not just that it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// Did every live replica agree on every live object?
    pub converged: bool,
    /// Synchronization rounds executed.
    pub rounds: usize,
    /// Batches still in the transport when the run stopped.
    pub in_flight: usize,
    /// Live replicas disagreeing with the reference (the first live
    /// replica), as `(replica index, number of divergent objects)`.
    pub divergent: Vec<(usize, usize)>,
}

impl ConvergenceReport {
    /// `Some(rounds)` when converged — the drop-in for the old
    /// `Option<usize>` shape.
    pub fn ok(&self) -> Option<usize> {
        self.converged.then_some(self.rounds)
    }

    /// The rounds taken; panics with the full report when convergence
    /// was not reached.
    #[track_caller]
    pub fn expect_converged(&self, context: &str) -> usize {
        assert!(self.converged, "{context}: {self}");
        self.rounds
    }
}

impl fmt::Display for ConvergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.converged {
            return write!(f, "converged after {} rounds", self.rounds);
        }
        write!(
            f,
            "NOT converged after {} rounds ({} batches in flight; divergent replicas:",
            self.rounds, self.in_flight
        )?;
        for (replica, objects) in &self.divergent {
            write!(f, " #{replica}×{objects}")?;
        }
        f.write_str(")")
    }
}

impl<K, C> Cluster<K, C, LoopbackTransport<K>>
where
    K: Ord + Clone + Sizeable + Hash,
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + 'static,
{
    /// A fully connected cluster of `n` replicas over the in-memory
    /// transport.
    pub fn full_mesh(n: usize, cfg: StoreConfig) -> Self {
        let neighbors = (0..n)
            .map(|i| (0..n).filter(|j| *j != i).map(ReplicaId::from).collect())
            .collect();
        Self::with_neighbors(neighbors, cfg)
    }

    /// A cluster with an explicit neighbor graph (entry `i` lists the
    /// replicas `i` pushes to), over the in-memory transport.
    pub fn with_neighbors(neighbors: Vec<Vec<ReplicaId>>, cfg: StoreConfig) -> Self {
        let n = neighbors.len();
        Self::with_transport(neighbors, cfg, LoopbackTransport::new(n))
    }

    /// Partition the cluster: sever every link between `group` and the
    /// rest, in both directions.
    pub fn partition(&mut self, group: &[usize]) {
        let in_group: BTreeSet<usize> = group.iter().copied().collect();
        let n = self.replicas.len();
        for i in 0..n {
            for j in 0..n {
                if i != j && in_group.contains(&i) != in_group.contains(&j) {
                    self.transport.sever(ReplicaId::from(i), ReplicaId::from(j));
                }
            }
        }
    }

    /// Heal every severed link.
    pub fn heal(&mut self) {
        self.transport.heal_all();
    }
}

impl<K, C, T> Cluster<K, C, T>
where
    K: Ord + Clone + Sizeable + Hash,
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + 'static,
    T: Transport<K>,
{
    /// A cluster over a custom transport.
    pub fn with_transport(neighbors: Vec<Vec<ReplicaId>>, cfg: StoreConfig, transport: T) -> Self {
        let n = neighbors.len();
        Cluster {
            replicas: (0..n)
                .map(|i| StoreReplica::with_params(ReplicaId::from(i), cfg, Params::new(n)))
                .collect(),
            neighbors,
            down: vec![false; n],
            transport,
            stats: TrafficStats::default(),
            cfg,
        }
    }

    /// The configuration in effect (including the runtime-selected
    /// protocol).
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Is the cluster empty?
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Read access to replica `i`.
    pub fn replica(&self, i: usize) -> &StoreReplica<K, C> {
        &self.replicas[i]
    }

    /// Mutable access to replica `i`.
    pub fn replica_mut(&mut self, i: usize) -> &mut StoreReplica<K, C> {
        &mut self.replicas[i]
    }

    /// Apply `op` at replica `i` to the object at `key`.
    pub fn update(&mut self, i: usize, key: K, op: &C::Op) {
        self.replicas[i].update(key, op);
    }

    /// Cumulative traffic statistics.
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// One synchronization round: every replica runs its sync step, then
    /// everything delivered is absorbed **to quiescence** — replies
    /// (push-pull protocols) re-enter the transport and are themselves
    /// delivered until nothing is in flight, so a Scuttlebutt
    /// digest/reply/final exchange completes within the round, exactly
    /// like the paper's experiment loop.
    pub fn sync_round(&mut self) {
        let model = self.cfg.model;
        for (i, replica) in self.replicas.iter_mut().enumerate() {
            if self.down[i] {
                continue;
            }
            let from = ReplicaId::from(i);
            for (to, msg) in replica.sync_step(&self.neighbors[i]) {
                self.stats.record(&msg, &model);
                self.transport.send(from, to, msg);
            }
        }
        while self.transport.in_flight() > 0 {
            for i in 0..self.replicas.len() {
                let at = ReplicaId::from(i);
                if self.down[i] {
                    // A crashed process is not there to receive: whatever
                    // the transport delivers to it is lost.
                    self.transport.poll(at);
                    continue;
                }
                for (_, msg) in self.transport.poll(at) {
                    // Every replica of this cluster was built from the same
                    // StoreConfig and the transport moves values, so
                    // mismatch/corruption cannot occur here; real
                    // byte-transport deployments handle the Err arm.
                    let replies = self.replicas[i]
                        .absorb(msg)
                        .expect("uniform in-process cluster cannot produce decode errors");
                    for (reply_to, reply) in replies {
                        self.stats.record(&reply, &model);
                        self.transport.send(at, reply_to, reply);
                    }
                }
            }
        }
    }

    /// Is replica `i` currently up?
    pub fn is_alive(&self, i: usize) -> bool {
        !self.down[i]
    }

    /// Crash replica `i`: it drops out of rounds and convergence checks,
    /// and traffic addressed to it is discarded. `durable: false` also
    /// wipes its objects — a later [`Cluster::restart`] starts from `⊥`.
    pub fn crash(&mut self, i: usize, durable: bool) {
        self.down[i] = true;
        if !durable {
            self.replicas[i].reset();
        }
    }

    /// Bring a crashed replica back. With `bootstrap = Some(peer)` the
    /// pair exchange per-object snapshots in both directions (state plus
    /// protocol recovery metadata) — required after a non-durable crash,
    /// and after any crash for the delta family, whose peers cleared
    /// their δ-buffers into the void while the replica was down.
    pub fn restart(&mut self, i: usize, bootstrap: Option<usize>) {
        self.down[i] = false;
        if let Some(peer) = bootstrap {
            self.bootstrap_pair(i, peer);
        }
    }

    /// Bidirectional per-object snapshot exchange between two live
    /// replicas (out-of-band state transfer), the lower index first.
    pub fn bootstrap_pair(&mut self, a: usize, b: usize) {
        repair_pair(
            &mut self.replicas,
            a.min(b),
            a.max(b),
            RepairMode::Bootstrap,
        );
    }

    /// A new replica joins the cluster, pushing to `links` (which start
    /// pushing back), bootstrapped from `bootstrap` when given. Returns
    /// the joiner's index.
    pub fn join(&mut self, links: Vec<ReplicaId>, bootstrap: Option<usize>) -> usize {
        assert!(!links.is_empty(), "a joining replica needs neighbors");
        let i = self.replicas.len();
        let id = ReplicaId::from(i);
        for &peer in &links {
            assert!(peer.index() < i, "link to unknown replica {peer}");
            self.neighbors[peer.index()].push(id);
        }
        self.neighbors.push(links);
        self.down.push(false);
        self.transport.add_node();
        let n = self.replicas.len() + 1;
        // Existing replicas must learn the new size before the joiner is
        // heard from (Scuttlebutt-GC safe-delete safety).
        for replica in &mut self.replicas {
            replica.set_system_size(n);
        }
        self.replicas
            .push(StoreReplica::with_params(id, self.cfg, Params::new(n)));
        if let Some(peer) = bootstrap {
            self.bootstrap_pair(i, peer);
        }
        i
    }

    /// Have all live replicas converged on every object?
    ///
    /// Objects still at `⊥` are ignored: a no-op update (e.g. removing an
    /// element from an empty set) creates the key locally but produces no
    /// delta, so peers legitimately never hear of it.
    pub fn converged(&self) -> bool {
        self.divergence().is_empty()
    }

    /// Live replicas disagreeing with the first live replica, as
    /// `(replica index, divergent object count)`.
    fn divergence(&self) -> Vec<(usize, usize)> {
        let live = |r: &StoreReplica<K, C>| {
            r.iter()
                .filter(|(_, x)| !x.is_bottom())
                .map(|(k, x)| (k.clone(), x.clone()))
                .collect::<Vec<_>>()
        };
        let Some(reference) = (0..self.replicas.len()).find(|i| !self.down[*i]) else {
            return Vec::new();
        };
        let base = live(&self.replicas[reference]);
        let mut out = Vec::new();
        for i in reference + 1..self.replicas.len() {
            if self.down[i] {
                continue;
            }
            let mine = live(&self.replicas[i]);
            let differing = base
                .iter()
                .filter(|(k, x)| mine.iter().find(|(mk, _)| mk == k).map(|(_, mx)| mx) != Some(x))
                .count()
                + mine
                    .iter()
                    .filter(|(k, _)| !base.iter().any(|(bk, _)| bk == k))
                    .count();
            if differing > 0 {
                out.push((i, differing));
            }
        }
        out
    }

    /// Run sync rounds until convergence (or `max_rounds`), reporting
    /// what happened either way — on timeout the report names the
    /// divergent replicas and their object counts, so a failed CI
    /// scenario is debuggable from its log.
    pub fn run_until_converged(&mut self, max_rounds: usize) -> ConvergenceReport {
        let mut rounds = max_rounds;
        for round in 0..max_rounds {
            if self.converged() && self.transport.in_flight() == 0 {
                rounds = round;
                break;
            }
            self.sync_round();
        }
        ConvergenceReport {
            converged: self.converged() && self.transport.in_flight() == 0,
            rounds,
            in_flight: self.transport.in_flight(),
            divergent: self.divergence(),
        }
    }

    /// Digest-driven pairwise repair between replicas `a` and `b` (the
    /// paper's §VI, \[30\]): for every object either side holds, exchange
    /// digests and ship only the join-irreducibles the other side is
    /// missing — never full states. Repaired deltas enter the ordinary
    /// receive path, so they continue to propagate to other replicas.
    ///
    /// Use after healing a partition whose duration exceeded what the
    /// cleared δ-buffers can replay.
    ///
    /// # Panics
    ///
    /// If the configured protocol does not exchange bare δ-groups
    /// ([`crdt_sync::ProtocolKind::accepts_raw_delta`]): the anti-entropy
    /// and op-based kinds carry their own recovery metadata and neither
    /// need nor accept digest injection.
    pub fn digest_repair(&mut self, a: usize, b: usize) -> PairSyncStats {
        repair_pair(&mut self.replicas, a, b, RepairMode::Sweep).stats
    }
}

impl<K, C, T> Cluster<K, C, T>
where
    K: Ord + Clone + Sizeable + Hash + WireEncode,
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + 'static,
    T: Transport<K>,
{
    /// Merkle-descent pairwise repair: localize divergence with a
    /// keyspace tree descent (O(log n · diverged) control frames), then
    /// run the §VI per-object digest protocol over **only** the diverged
    /// keys. While both keyspaces are below
    /// [`crdt_sync::MERKLE_REPAIR_THRESHOLD`] objects it is
    /// [`Cluster::digest_repair`] unchanged — per-object digests are
    /// already cheap there and their accounting stays byte-identical.
    ///
    /// Descent traffic is folded into the returned stats: frames count as
    /// messages, encoded frame bytes as metadata.
    ///
    /// # Panics
    ///
    /// Like [`Cluster::digest_repair`], if the configured protocol does
    /// not accept bare δ-groups.
    pub fn merkle_repair(&mut self, a: usize, b: usize) -> PairSyncStats {
        repair_pair(&mut self.replicas, a, b, RepairMode::merkle()).stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdt_sync::ProtocolKind;
    use crdt_types::{GSet, GSetOp};

    type Cl = Cluster<&'static str, GSet<u32>>;

    #[test]
    fn full_mesh_converges_in_one_round() {
        let mut c: Cl = Cluster::full_mesh(4, StoreConfig::default());
        c.update(0, "x", &GSetOp::Add(1));
        c.update(3, "y", &GSetOp::Add(2));
        c.sync_round();
        assert!(c.converged());
        assert!(c.replica(2).get("x").unwrap().contains(&1));
        assert!(c.replica(1).get("y").unwrap().contains(&2));
    }

    #[test]
    fn line_graph_needs_diameter_rounds() {
        // 0 – 1 – 2 – 3 line.
        let neighbors = vec![
            vec![ReplicaId(1)],
            vec![ReplicaId(0), ReplicaId(2)],
            vec![ReplicaId(1), ReplicaId(3)],
            vec![ReplicaId(2)],
        ];
        let mut c: Cl = Cluster::with_neighbors(neighbors, StoreConfig::default());
        c.update(0, "x", &GSetOp::Add(1));
        c.sync_round();
        assert!(c.replica(1).get("x").is_some());
        assert!(c.replica(3).get("x").is_none(), "3 hops away");
        let rounds = c.run_until_converged(16).expect_converged("converges");
        assert!(rounds >= 2, "needed more than the first round");
        assert!(c.replica(3).get("x").unwrap().contains(&1));
    }

    #[test]
    fn traffic_is_accounted() {
        let mut c: Cl = Cluster::full_mesh(3, StoreConfig::default());
        c.update(0, "x", &GSetOp::Add(1));
        c.sync_round();
        let stats = c.stats();
        assert!(stats.messages >= 2, "replica 0 pushed to both neighbors");
        assert!(stats.payload_elements >= 2);
        assert!(stats.total_bytes() > 0);
    }

    #[test]
    fn partition_blocks_then_heal_repairs() {
        let mut c: Cl = Cluster::full_mesh(4, StoreConfig::default());
        c.partition(&[0, 1]);
        c.update(0, "left", &GSetOp::Add(1));
        c.update(2, "right", &GSetOp::Add(2));
        for _ in 0..4 {
            c.sync_round();
        }
        // Sides converged internally but not across the cut.
        assert!(c.replica(1).get("left").is_some());
        assert!(c.replica(1).get("right").is_none());
        assert!(!c.converged());
        // Heal. δ-buffers were cleared during the partition (their sends
        // were dropped), so ordinary rounds cannot repair: digest repair
        // across the cut restores convergence.
        c.heal();
        let stats = c.digest_repair(1, 2);
        assert!(stats.payload_elements > 0);
        // Repaired deltas propagate onward through normal rounds.
        c.run_until_converged(8)
            .expect_converged("converges after repair");
        assert!(c.replica(3).get("left").unwrap().contains(&1));
        assert!(c.replica(0).get("right").unwrap().contains(&2));
    }

    #[test]
    fn digest_repair_ships_only_differences() {
        let mut c: Cl = Cluster::full_mesh(2, StoreConfig::default());
        // Build a large shared object…
        for e in 0..100 {
            c.update(0, "big", &GSetOp::Add(e));
        }
        c.run_until_converged(4).expect_converged("converges");
        // …then diverge by one element on each side, without syncing.
        c.replicas[0].update("big", &GSetOp::Add(1000));
        c.replicas[1].update("big", &GSetOp::Add(2000));
        // Clear the pending buffers by severing both directions and
        // syncing into the void.
        c.transport.sever(ReplicaId(0), ReplicaId(1));
        c.transport.sever(ReplicaId(1), ReplicaId(0));
        c.sync_round();
        c.heal();
        let stats = c.digest_repair(0, 1);
        assert_eq!(
            stats.payload_elements, 2,
            "only the two divergent elements ship — not the 100 shared"
        );
        assert!(c.converged());
    }

    #[test]
    fn scuttlebutt_cluster_converges_via_reply_routing() {
        // The protocol is a runtime value: the same Cluster code drives
        // anti-entropy push-pull, with replies crossing the transport.
        let mut c: Cl = Cluster::full_mesh(3, StoreConfig::new(ProtocolKind::Scuttlebutt));
        c.update(0, "x", &GSetOp::Add(1));
        c.update(2, "y", &GSetOp::Add(9));
        c.run_until_converged(16)
            .expect_converged("anti-entropy converges");
        // The digest/reply/final exchange crossed the transport: more
        // batches than the two digests alone.
        assert!(c.stats().messages > 2);
        assert!(c.replica(1).get("x").unwrap().contains(&1));
        assert!(c.replica(0).get("y").unwrap().contains(&9));
    }

    #[test]
    fn every_raw_delta_kind_runs_the_store() {
        for kind in [
            ProtocolKind::Classic,
            ProtocolKind::Bp,
            ProtocolKind::Rr,
            ProtocolKind::BpRr,
            ProtocolKind::State,
        ] {
            let mut c: Cl = Cluster::full_mesh(3, StoreConfig::new(kind));
            c.update(0, "x", &GSetOp::Add(1));
            c.update(1, "x", &GSetOp::Add(2));
            c.run_until_converged(16)
                .expect_converged(&format!("{kind} store"));
            assert_eq!(c.replica(2).get("x").unwrap().len(), 2, "{kind}");
        }
    }

    #[test]
    fn crash_restart_with_bootstrap_reconverges() {
        for durable in [true, false] {
            let mut c: Cl = Cluster::full_mesh(4, StoreConfig::default());
            c.update(0, "x", &GSetOp::Add(1));
            c.run_until_converged(4).expect_converged("warm-up");
            c.crash(3, durable);
            assert!(!c.is_alive(3));
            // Progress while #3 is down: its peers' δ-buffers drain into
            // the void.
            c.update(1, "x", &GSetOp::Add(2));
            c.sync_round();
            c.sync_round();
            assert!(c.converged(), "live replicas agree without #3");
            c.restart(3, Some(0));
            assert!(c.is_alive(3));
            c.run_until_converged(8)
                .expect_converged(&format!("durable={durable}"));
            assert_eq!(c.replica(3).get("x").unwrap().len(), 2, "{durable}");
        }
    }

    #[test]
    fn join_bootstraps_and_participates() {
        let mut c: Cl = Cluster::full_mesh(3, StoreConfig::default());
        for e in 0..5 {
            c.update(0, "history", &GSetOp::Add(e));
        }
        c.run_until_converged(4).expect_converged("pre-join");
        let joined = c.join(vec![ReplicaId(0), ReplicaId(2)], Some(1));
        assert_eq!(joined, 3);
        assert_eq!(c.len(), 4);
        // The joiner got the history by bootstrap, not gossip.
        assert_eq!(c.replica(joined).get("history").unwrap().len(), 5);
        // And it participates in ordinary rounds both ways.
        c.update(joined, "history", &GSetOp::Add(100));
        c.run_until_converged(8).expect_converged("post-join");
        assert!(c.replica(1).get("history").unwrap().contains(&100));
    }

    #[test]
    fn timeout_report_names_divergent_replicas() {
        let mut c: Cl = Cluster::full_mesh(4, StoreConfig::default());
        c.partition(&[0, 1]);
        c.update(0, "left", &GSetOp::Add(1));
        c.update(2, "right", &GSetOp::Add(2));
        let report = c.run_until_converged(4);
        assert!(!report.converged);
        assert!(report.ok().is_none());
        assert!(
            !report.divergent.is_empty(),
            "the cut must be visible: {report}"
        );
        let rendered = report.to_string();
        assert!(rendered.contains("NOT converged"), "{rendered}");
    }

    #[test]
    #[should_panic(expected = "digest repair applies")]
    fn digest_repair_rejects_anti_entropy_kinds() {
        let mut c: Cl = Cluster::full_mesh(2, StoreConfig::new(ProtocolKind::Scuttlebutt));
        c.update(0, "x", &GSetOp::Add(1));
        let _ = c.digest_repair(0, 1);
    }

    /// Converge a 2-replica keyspace of `n` objects, then diverge three
    /// keys across a cut (draining the δ-buffers into the void) and heal.
    fn diverged_pair(n: u64) -> Cluster<u64, GSet<u32>> {
        let mut c: Cluster<u64, GSet<u32>> = Cluster::full_mesh(2, StoreConfig::default());
        for k in 0..n {
            c.update(0, k, &GSetOp::Add(k as u32));
        }
        c.run_until_converged(4).expect_converged("warm-up");
        c.partition(&[0]);
        c.update(0, 5, &GSetOp::Add(1_000));
        c.update(1, 6, &GSetOp::Add(2_000));
        c.update(1, 7, &GSetOp::Add(3_000));
        c.sync_round();
        c.heal();
        c
    }

    #[test]
    fn merkle_repair_localizes_divergence_on_large_keyspaces() {
        let mut c = diverged_pair(200);
        let stats = c.merkle_repair(0, 1);
        assert!(c.converged(), "tree descent + targeted digests converge");
        assert_eq!(
            stats.payload_elements, 3,
            "only the three diverged elements ship"
        );
        // A per-object sweep would run the 3-message §VI protocol over
        // all 200 objects; the descent localizes to 3 keys first.
        assert!(
            stats.messages < 200,
            "{} messages must undercut the 600 of a full sweep",
            stats.messages
        );
    }

    #[test]
    fn merkle_repair_delegates_below_threshold() {
        // Two identically diverged small keyspaces: below the threshold
        // the merkle path is the per-object digest path, byte for byte.
        let mut via_digest = diverged_pair(10);
        let mut via_merkle = diverged_pair(10);
        let d = via_digest.digest_repair(0, 1);
        let m = via_merkle.merkle_repair(0, 1);
        assert_eq!(d, m);
        assert!(via_merkle.converged());
    }

    #[test]
    fn merkle_repair_matches_digest_repair_final_state() {
        let mut via_digest = diverged_pair(200);
        let mut via_merkle = diverged_pair(200);
        via_digest.digest_repair(0, 1);
        via_merkle.merkle_repair(0, 1);
        assert!(via_digest.converged() && via_merkle.converged());
        for k in 0..200u64 {
            assert_eq!(
                via_digest.replica(0).get(k),
                via_merkle.replica(0).get(k),
                "key {k}"
            );
        }
    }

    #[test]
    fn compaction_prunes_acked_buffers_without_breaking_convergence() {
        let cfg = StoreConfig::new(ProtocolKind::Acked);
        let mut c: Cluster<u64, GSet<u32>> = Cluster::full_mesh(3, cfg);
        for k in 0..20u64 {
            c.update(0, k, &GSetOp::Add(k as u32));
        }
        c.run_until_converged(8).expect_converged("acked converges");
        // Everything is acked by both peers: the stability frontier
        // covers every buffered entry.
        let pruned: u64 = (0..3).map(|i| c.replica_mut(i).compact()).sum();
        assert!(pruned > 0, "acked buffers were compacted");
        // Compaction never touches lattice state; progress continues.
        c.update(1, 3, &GSetOp::Add(9_999));
        c.run_until_converged(8).expect_converged("post-compaction");
        assert!(c.replica(2).get(3).unwrap().contains(&9_999));
    }

    /// Repairing two replicas that have never held an object is a
    /// no-op: zero frames, zero bytes — the union of keys is empty, so
    /// the handshake never starts. Same for the Merkle path, which
    /// delegates below the threshold.
    #[test]
    fn digest_repair_on_an_empty_keyspace_is_free() {
        let mut c: Cluster<u64, GSet<u32>> = Cluster::full_mesh(2, StoreConfig::default());
        assert_eq!(c.digest_repair(0, 1), PairSyncStats::default());
        assert_eq!(c.merkle_repair(0, 1), PairSyncStats::default());
    }

    /// A single-object keyspace where only one side holds the object:
    /// repair transfers it once, and a second repair ships nothing.
    #[test]
    fn digest_repair_of_a_single_object_is_one_way_then_idempotent() {
        let mut c: Cluster<u64, GSet<u32>> = Cluster::full_mesh(2, StoreConfig::default());
        c.partition(&[0]);
        c.update(0, 42, &GSetOp::Add(7));
        c.sync_round(); // δ-buffer drains into the severed link
        c.heal();
        let stats = c.digest_repair(0, 1);
        assert_eq!(stats.messages, 3, "one 3-frame handshake for one key");
        assert_eq!(stats.payload_elements, 1);
        assert_eq!(c.replica(1).get(42), c.replica(0).get(42));
        // Idempotence: a converged pair exchanges digests only.
        let again = c.digest_repair(0, 1);
        assert_eq!(again.payload_elements, 0);
        assert_eq!(again.payload_bytes, 0);
    }

    /// Compaction between the digest computation and the delta exchange
    /// must not change what repair ships: pruning is restricted to
    /// causally *stable* metadata, never lattice state, so digests
    /// taken before a `compact()` still describe the state after it.
    #[test]
    fn repair_agrees_across_a_mid_handshake_compaction() {
        let mut before = diverged_pair(80);
        let stats_before = before.digest_repair(0, 1);
        let mut after = diverged_pair(80);
        // Compact both replicas *after* divergence, i.e. at the moment
        // a concurrent compaction pass could interleave with a repair
        // handshake's frames.
        after.replica_mut(0).compact();
        after.replica_mut(1).compact();
        let stats_after = after.digest_repair(0, 1);
        assert_eq!(
            stats_before, stats_after,
            "compaction changed what repair shipped"
        );
        for k in 0..80u64 {
            assert_eq!(before.replica(0).get(k), after.replica(0).get(k));
            assert_eq!(after.replica(0).get(k), after.replica(1).get(k));
        }
    }
}
