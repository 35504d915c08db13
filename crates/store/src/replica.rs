//! One replica of the multi-object store.

use std::collections::BTreeMap;
use std::hash::Hash;
use std::marker::PhantomData;

use crdt_lattice::{ReplicaId, SizeModel, Sizeable, WireEncode};
use crdt_sync::digest::PairSyncStats;
use crdt_sync::{
    build_engine_send_with_model, BufferPool, DeltaMsg, EngineError, EngineMetrics, Measured,
    MemoryUsage, MerkleTree, OpBytes, Params, ProtocolKind, SyncEngine, WireAccounting,
    WireEnvelope,
};
use crdt_types::Crdt;

use crate::message::StoreMsg;

/// Store-wide configuration.
///
/// The protocol is a **runtime value**: one store binary serves any of
/// the paper's synchronization strategies, selected per deployment (e.g.
/// from a `--protocol bp_rr` flag via [`ProtocolKind::from_str`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Which synchronization protocol every object runs. Defaults to
    /// BP+RR (the paper's best variant); set [`ProtocolKind::Classic`] to
    /// reproduce the anomaly of Fig. 1, or any other kind to compare
    /// baselines through the same store API.
    pub protocol: ProtocolKind,
    /// Byte model used for traffic/memory accounting.
    pub model: SizeModel,
}

impl StoreConfig {
    /// Configuration running `protocol` under the compact byte model.
    pub fn new(protocol: ProtocolKind) -> Self {
        StoreConfig {
            protocol,
            model: SizeModel::compact(),
        }
    }

    /// Override the accounting byte model.
    pub fn with_model(mut self, model: SizeModel) -> Self {
        self.model = model;
        self
    }
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self::new(ProtocolKind::BpRr)
    }
}

/// Registry-backed cells a replica (and its per-object engines) bump.
/// One set per node; obtain via [`StoreMetrics::register`] and attach
/// with [`StoreReplica::set_obs`].
#[derive(Clone, Debug)]
pub struct StoreMetrics {
    /// `store.objects` — live objects (keys) in the replica.
    pub objects: crdt_obs::Gauge,
    /// `store.sync.steps` — synchronization steps run.
    pub sync_steps: crdt_obs::Counter,
    /// `store.compact.reclaimed` — metadata entries reclaimed by
    /// compaction across all object engines.
    pub compact_reclaimed: crdt_obs::Counter,
    /// Cells the object engines bump (`engine.*`).
    pub engine: EngineMetrics,
}

impl StoreMetrics {
    /// Register (or look up) the store cells in `reg`.
    pub fn register(reg: &crdt_obs::Registry) -> Self {
        StoreMetrics {
            objects: crdt_obs::register_gauge!(
                reg,
                "store.objects",
                "live objects (keys) in the replica"
            ),
            sync_steps: crdt_obs::register_counter!(
                reg,
                "store.sync.steps",
                "synchronization steps run"
            ),
            compact_reclaimed: crdt_obs::register_counter!(
                reg,
                "store.compact.reclaimed",
                "metadata entries reclaimed by compaction"
            ),
            engine: EngineMetrics::register(reg),
        }
    }
}

/// One replica of a keyspace of CRDT objects, each object synchronized by
/// its own engine of the configured [`ProtocolKind`].
///
/// Objects are created lazily: updating (or receiving an envelope for) an
/// unknown key instantiates it at `⊥`, so new objects propagate through
/// ordinary synchronization with no naming service.
///
/// The object engines are type-erased ([`SyncEngine`]); the replica keeps
/// the CRDT type `C` only at its *API boundary* — typed operations in,
/// typed state out (via checked downcasts).
///
/// Engines are boxed as `dyn SyncEngine + Send` (via
/// [`build_engine_send_with_model`]), so a whole replica moves across
/// threads: the in-process [`crate::Cluster`] drives it single-threaded,
/// while `crdt-net`'s TCP node runtime parks one behind a mutex shared
/// by its scheduler and socket-reader threads.
#[derive(Debug)]
pub struct StoreReplica<K: Ord, C> {
    id: ReplicaId,
    cfg: StoreConfig,
    params: Params,
    objects: BTreeMap<K, Box<dyn SyncEngine + Send>>,
    /// Recycled encode scratch shared by every object engine at this
    /// replica: a sync step's (or absorb's reply) payloads land in
    /// pooled buffers reused round after round.
    pool: BufferPool,
    /// Keyspace Merkle tree, maintained incrementally: every mutation
    /// path marks the touched key dirty; [`StoreReplica::merkle`]
    /// flushes dirty leaf paths against the live engine state hashes.
    merkle: MerkleTree<K>,
    /// Registry-backed cells, attached via [`StoreReplica::set_obs`];
    /// `None` (the default) costs one branch per step.
    obs: Option<StoreMetrics>,
    _crdt: PhantomData<fn() -> C>,
}

impl<K, C> StoreReplica<K, C>
where
    K: Ord + Clone + Sizeable + Hash,
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + 'static,
{
    /// Create replica `id` with the system size **unknown**
    /// (`n_nodes = usize::MAX`); use [`StoreReplica::with_params`] when
    /// the size is known (as [`crate::Cluster`] does).
    ///
    /// Unknown size is the *safe* default for every protocol: the only
    /// consumer of `n_nodes` is Scuttlebutt-GC's safe-delete rule, which
    /// under `usize::MAX` simply never prunes (plain-Scuttlebutt
    /// behavior) instead of wrongly pruning deltas no peer has seen —
    /// which a small default like `1` would cause, silently breaking
    /// convergence.
    pub fn new(id: ReplicaId, cfg: StoreConfig) -> Self {
        Self::with_params(id, cfg, Params::new(usize::MAX))
    }

    /// Create replica `id` with explicit system parameters.
    pub fn with_params(id: ReplicaId, cfg: StoreConfig, params: Params) -> Self {
        StoreReplica {
            id,
            cfg,
            params,
            objects: BTreeMap::new(),
            pool: BufferPool::new(),
            merkle: MerkleTree::default(),
            obs: None,
            _crdt: PhantomData,
        }
    }

    /// Attach registry-backed cells: the replica registers its
    /// `store.*` / `engine.*` names in `reg` and every existing and
    /// future object engine bumps the shared cells.
    pub fn set_obs(&mut self, reg: &crdt_obs::Registry) {
        let metrics = StoreMetrics::register(reg);
        for engine in self.objects.values_mut() {
            engine.set_metrics(&metrics.engine);
        }
        metrics.objects.set(self.objects.len() as u64);
        self.obs = Some(metrics);
    }

    /// This replica's identifier (also the id operations act under).
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The configuration in effect.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// The engine at `key` in `objects`, created lazily at `⊥`. An
    /// associated fn over the map (not `&mut self`) so callers can hold
    /// `self.pool` mutably at the same time.
    fn engine_at<'a>(
        objects: &'a mut BTreeMap<K, Box<dyn SyncEngine + Send>>,
        key: K,
        id: ReplicaId,
        cfg: StoreConfig,
        params: &Params,
        obs: &Option<StoreMetrics>,
    ) -> &'a mut Box<dyn SyncEngine + Send> {
        objects.entry(key).or_insert_with(|| {
            let mut engine = build_engine_send_with_model::<C>(cfg.protocol, id, params, cfg.model);
            if let Some(m) = obs {
                engine.set_metrics(&m.engine);
                m.objects.add(1);
            }
            engine
        })
    }

    fn engine(&mut self, key: K) -> &mut Box<dyn SyncEngine + Send> {
        Self::engine_at(
            &mut self.objects,
            key,
            self.id,
            self.cfg,
            &self.params,
            &self.obs,
        )
    }

    fn typed_state(engine: &dyn SyncEngine) -> &C {
        engine
            .state_any()
            .downcast_ref::<C>()
            .expect("store engines are always built over the replica's CRDT type")
    }

    /// Apply `op` to the object at `key`, creating it at `⊥` first if
    /// unknown. The resulting delta (or log entry, op record, … — per
    /// protocol) is buffered for the next sync round.
    pub fn update(&mut self, key: K, op: &C::Op) {
        let bytes = OpBytes::encode(op);
        self.merkle.touch(key.clone());
        self.engine(key)
            .on_op(&bytes)
            .expect("engine rejected its own CRDT's op encoding");
    }

    /// The object's lattice state, if the key exists.
    pub fn get(&self, key: K) -> Option<&C> {
        self.objects
            .get(&key)
            .map(|e| Self::typed_state(e.as_ref()))
    }

    /// The object's query value, if the key exists.
    pub fn value(&self, key: K) -> Option<C::Value> {
        self.get(key).map(Crdt::value)
    }

    /// All live keys, in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.objects.keys()
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Does the replica hold no objects?
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Iterate `(key, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &C)> {
        self.objects
            .iter()
            .map(|(k, e)| (k, Self::typed_state(e.as_ref())))
    }

    /// Run one synchronization step (per object): per neighbor, batch
    /// every object's envelope into one [`StoreMsg`].
    ///
    /// For the delta family this is Algorithm 1 lines 9–13 — buffers are
    /// cleared, so messages must not be dropped (pair with the acked
    /// protocol or digest repair for lossy links). Anti-entropy kinds
    /// (Scuttlebutt) emit digests here and complete their exchange through
    /// the replies returned by [`StoreReplica::absorb`].
    pub fn sync_step(&mut self, neighbors: &[ReplicaId]) -> Vec<(ReplicaId, StoreMsg<K>)> {
        if let Some(m) = &self.obs {
            m.sync_steps.inc();
        }
        let mut batches: BTreeMap<ReplicaId, StoreMsg<K>> = BTreeMap::new();
        for (key, engine) in self.objects.iter_mut() {
            for env in engine.on_sync_pooled(neighbors, &mut self.pool) {
                batches
                    .entry(env.to)
                    .or_default()
                    .entries
                    .push((key.clone(), env));
            }
        }
        batches.into_iter().filter(|(_, b)| !b.is_empty()).collect()
    }

    /// Absorb a batch (per object), creating unknown objects at `⊥`.
    /// Returns reply batches (push-pull protocols answer digests; the
    /// delta family replies with nothing).
    ///
    /// # Errors
    ///
    /// Batches can arrive from real peers over a byte transport, so
    /// malformed payloads and mismatched protocols are runtime
    /// conditions, not bugs: an envelope of a different
    /// [`ProtocolKind`] (peer misconfiguration) or an undecodable
    /// payload (corruption) returns [`EngineError`] instead of
    /// panicking. Entries before the bad one are already applied —
    /// harmless, since CRDT deltas are idempotent and a retransmitted
    /// batch re-applies cleanly.
    pub fn absorb(
        &mut self,
        msg: StoreMsg<K>,
    ) -> Result<Vec<(ReplicaId, StoreMsg<K>)>, EngineError> {
        let mut batches: BTreeMap<ReplicaId, StoreMsg<K>> = BTreeMap::new();
        for (key, env) in msg.entries {
            self.merkle.touch(key.clone());
            let engine = Self::engine_at(
                &mut self.objects,
                key.clone(),
                self.id,
                self.cfg,
                &self.params,
                &self.obs,
            );
            let replies = engine.on_msg_pooled(env, &mut self.pool)?;
            for reply in replies {
                batches
                    .entry(reply.to)
                    .or_default()
                    .entries
                    .push((key.clone(), reply));
            }
        }
        Ok(batches.into_iter().filter(|(_, b)| !b.is_empty()).collect())
    }

    /// The cluster grew (or shrank) to `n_nodes` replicas: update the
    /// construction parameters for future objects and notify every
    /// existing engine (Scuttlebutt-GC's safe-delete rule depends on the
    /// system size; see [`crdt_sync::SyncEngine::set_system_size`]).
    pub fn set_system_size(&mut self, n_nodes: usize) {
        self.params.n_nodes = n_nodes;
        for engine in self.objects.values_mut() {
            engine.set_system_size(n_nodes);
        }
    }

    /// Discard every object — the state loss of a **non-durable crash**.
    /// Pair with [`StoreReplica::bootstrap_from`] to rejoin from a live
    /// peer.
    pub fn reset(&mut self) {
        self.objects.clear();
        self.merkle.clear();
        if let Some(m) = &self.obs {
            m.objects.set(0);
        }
    }

    /// Out-of-band state transfer: for every object `source` holds,
    /// bootstrap the local engine (created at `⊥` if unknown) from the
    /// peer's — snapshot state plus protocol recovery metadata travel
    /// together (see [`crdt_sync::SyncEngine::bootstrap_from`]). Returns
    /// the traffic: one batched snapshot frame (none when `source` is
    /// empty) and the lattice elements and payload bytes it carries.
    ///
    /// Both replicas must run the same [`StoreConfig`] protocol — the
    /// invariant [`crate::Cluster`] maintains by construction.
    pub fn bootstrap_from(&mut self, source: &StoreReplica<K, C>) -> PairSyncStats {
        let mut stats = PairSyncStats {
            messages: u32::from(!source.is_empty()),
            ..PairSyncStats::default()
        };
        for (key, engine) in &source.objects {
            self.merkle.touch(key.clone());
            let acc = self
                .engine(key.clone())
                .bootstrap_from(engine.as_ref())
                .expect("uniform store cluster cannot mismatch protocols");
            stats.payload_elements += acc.payload_elements;
            stats.payload_bytes += acc.payload_bytes;
        }
        stats
    }

    /// Memory snapshot summed over all objects (CRDT state + per-object
    /// synchronization buffers), plus key storage as metadata.
    pub fn memory(&self) -> MemoryUsage {
        let mut total = MemoryUsage::default();
        for engine in self.objects.values() {
            let m = engine.memory();
            total.crdt_elements += m.crdt_elements;
            total.crdt_bytes += m.crdt_bytes;
            total.meta_elements += m.meta_elements;
            total.meta_bytes += m.meta_bytes;
        }
        // Key storage is metadata too.
        total.meta_bytes += self
            .objects
            .keys()
            .map(|k| k.payload_bytes(&self.cfg.model))
            .sum::<u64>();
        total
    }

    /// The keyspace Merkle tree, flushed to current: keys touched since
    /// the last call are rehashed against the live engine states (a key
    /// whose engine vanished — [`StoreReplica::reset`] — drops out).
    /// `&mut self` because flushing is deferred maintenance; the flush
    /// cost is O(touched · depth), not O(keyspace).
    pub fn merkle(&mut self) -> &MerkleTree<K> {
        let objects = &self.objects;
        self.merkle
            .flush(|k| objects.get(k).map(|e| e.state_hash()));
        &self.merkle
    }

    /// Prune causally stable synchronization metadata in every object
    /// engine (δ-buffer entries every peer acked, op-buffer entries every
    /// replica has seen, anti-entropy knowledge below the stability
    /// frontier — see [`crdt_sync::SyncEngine::compact`]). Never changes
    /// lattice state, so convergence and the Merkle tree are unaffected.
    /// Returns the number of entries pruned.
    pub fn compact(&mut self) -> u64 {
        let reclaimed = self.objects.values_mut().map(|e| e.compact()).sum();
        if let Some(m) = &self.obs {
            m.compact_reclaimed.add(reclaimed);
        }
        reclaimed
    }

    /// Feed a repaired delta into the object at `key` through the
    /// ordinary receive path, as if `from` had sent it — so RR extraction
    /// applies and the novelty is re-buffered for onward propagation.
    ///
    /// Only meaningful for kinds whose wire message is a bare δ-group
    /// ([`ProtocolKind::accepts_raw_delta`]); callers must check first,
    /// as the digest-repair paths do ([`crate::Cluster::digest_repair`]
    /// in process, `crdt-net`'s repair handshake over sockets).
    ///
    /// # Panics
    ///
    /// If the configured protocol rejects raw δ-group payloads.
    pub fn inject_delta(&mut self, key: K, from: ReplicaId, delta: C) {
        self.merkle.touch(key.clone());
        let kind = self.cfg.protocol;
        debug_assert!(kind.accepts_raw_delta());
        let msg = DeltaMsg(delta);
        let payload = msg.to_bytes();
        let model = self.cfg.model;
        let accounting = WireAccounting {
            payload_elements: msg.payload_elements(),
            payload_bytes: msg.payload_bytes(&model),
            metadata_bytes: msg.metadata_bytes(&model),
            encoded_bytes: payload.len() as u64,
        };
        let to = self.id;
        let env = WireEnvelope {
            from,
            to,
            kind,
            payload: payload.into(),
            accounting,
        };
        let replies = Self::engine_at(
            &mut self.objects,
            key,
            self.id,
            self.cfg,
            &self.params,
            &self.obs,
        )
        .on_msg_pooled(env, &mut self.pool)
        .expect("raw delta injection matches the configured protocol");
        debug_assert!(replies.is_empty(), "delta-family kinds never reply");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdt_lattice::Lattice;
    use crdt_types::{GSet, GSetOp};

    const A: ReplicaId = ReplicaId(0);
    const B: ReplicaId = ReplicaId(1);

    fn replica(id: ReplicaId) -> StoreReplica<&'static str, GSet<u32>> {
        StoreReplica::new(id, StoreConfig::default())
    }

    #[test]
    fn update_creates_objects_lazily() {
        let mut r = replica(A);
        assert!(r.is_empty());
        r.update("x", &GSetOp::Add(1));
        r.update("y", &GSetOp::Add(2));
        assert_eq!(r.len(), 2);
        assert!(r.get("x").unwrap().contains(&1));
        assert!(r.value("z").is_none());
    }

    #[test]
    fn sync_batches_all_objects_per_neighbor() {
        let mut r = replica(A);
        r.update("x", &GSetOp::Add(1));
        r.update("y", &GSetOp::Add(2));
        let batches = r.sync_step(&[B]);
        assert_eq!(batches.len(), 1);
        let (to, msg) = &batches[0];
        assert_eq!(*to, B);
        assert_eq!(msg.len(), 2, "both objects in one batch");
        // Buffers cleared: next step ships nothing.
        assert!(r.sync_step(&[B]).is_empty());
    }

    #[test]
    fn absorb_creates_unknown_objects() {
        let mut a = replica(A);
        let mut b = replica(B);
        a.update("new-object", &GSetOp::Add(7));
        for (to, msg) in a.sync_step(&[B]) {
            assert_eq!(to, B);
            assert!(
                b.absorb(msg).unwrap().is_empty(),
                "delta family: no replies"
            );
        }
        assert!(b.get("new-object").unwrap().contains(&7));
    }

    #[test]
    fn rr_extracts_only_novelty_per_object() {
        let mut a = replica(A);
        let mut b = replica(B);
        // Both already know {1} under "x".
        a.update("x", &GSetOp::Add(1));
        for (_, msg) in a.sync_step(&[B]) {
            b.absorb(msg).unwrap();
        }
        // B adds 2; A concurrently adds 3. B's batch to A contains {2}
        // only (its buffer was consumed), and when A's {1,3}-era buffer
        // arrives at B, RR strips the known part.
        b.update("x", &GSetOp::Add(2));
        a.update("x", &GSetOp::Add(3));
        for (_, msg) in b.sync_step(&[A]) {
            a.absorb(msg).unwrap();
        }
        let batches = a.sync_step(&[B]);
        let total: u64 = batches.iter().map(|(_, m)| m.payload_elements()).sum();
        // BP keeps B's own {2} out of the reply; only {3} ships.
        assert_eq!(total, 1);
        for (_, msg) in batches {
            b.absorb(msg).unwrap();
        }
        assert_eq!(a.get("x"), b.get("x"));
        assert_eq!(a.get("x").unwrap().len(), 3);
    }

    #[test]
    fn memory_sums_objects_and_keys() {
        let mut r = replica(A);
        r.update("x", &GSetOp::Add(1));
        r.update("y", &GSetOp::Add(2));
        let m = r.memory();
        assert_eq!(m.crdt_elements, 2);
        assert_eq!(m.meta_elements, 2, "δ-buffers hold the two deltas");
        assert!(m.meta_bytes >= 2, "keys counted as metadata");
    }

    #[test]
    fn classic_config_buffers_whole_received_groups() {
        let classic = StoreConfig::new(ProtocolKind::Classic);
        let mut a: StoreReplica<&str, GSet<u32>> = StoreReplica::new(A, classic);
        let mut b: StoreReplica<&str, GSet<u32>> = StoreReplica::new(B, classic);
        a.update("x", &GSetOp::Add(1));
        // A received group that inflates: classic buffers all of it.
        b.update("x", &GSetOp::Add(1));
        b.update("x", &GSetOp::Add(2));
        b.update("x", &GSetOp::Add(3));
        for (_, msg) in b.sync_step(&[A]) {
            a.absorb(msg).unwrap();
        }
        let m = a.memory();
        assert_eq!(m.meta_elements, 1 + 3, "local delta + whole group");
    }

    #[test]
    fn scuttlebutt_store_replicates_via_push_pull() {
        // The generalized store runs anti-entropy kinds end to end: the
        // digest goes out in sync_step, the payload comes back through
        // absorb's reply batches.
        let cfg = StoreConfig::new(ProtocolKind::Scuttlebutt);
        let params = Params::new(2);
        let mut a: StoreReplica<&str, GSet<u32>> = StoreReplica::with_params(A, cfg, params);
        let mut b: StoreReplica<&str, GSet<u32>> = StoreReplica::with_params(B, cfg, params);
        b.update("x", &GSetOp::Add(9));

        // B initiates (it holds the only object): digest → A replies with
        // its (empty) missing set and clock → B's final ships {9} to A.
        let mut to_a = b.sync_step(&[A]);
        assert_eq!(to_a.len(), 1);
        let replies = a.absorb(to_a.pop().unwrap().1).unwrap();
        assert_eq!(replies.len(), 1, "A answers the digest");
        for (_, msg) in replies {
            for (_, finals) in b.absorb(msg).unwrap() {
                a.absorb(finals).unwrap();
            }
        }
        assert!(a.get("x").unwrap().contains(&9));
    }

    #[test]
    fn independent_objects_do_not_cross_talk() {
        let mut a = replica(A);
        let mut b = replica(B);
        a.update("x", &GSetOp::Add(1));
        b.update("y", &GSetOp::Add(2));
        for (_, msg) in a.sync_step(&[B]) {
            b.absorb(msg).unwrap();
        }
        for (_, msg) in b.sync_step(&[A]) {
            a.absorb(msg).unwrap();
        }
        assert_eq!(a.get("x").unwrap().len(), 1);
        assert_eq!(a.get("y").unwrap().len(), 1);
        assert_eq!(a.get("x"), b.get("x"));
        assert_eq!(a.get("y"), b.get("y"));
        // The two objects never merged.
        assert!(
            a.get("x")
                .unwrap()
                .clone()
                .join(a.get("y").unwrap().clone())
                .len()
                == 2
        );
    }
}
