//! The sharded runner and the store cluster repair a pair through the
//! same `delta_store::repair_pair`: on identically diverged keyspaces,
//! [`ShardedEngineRunner::repair_pair`] and `Cluster::merkle_repair`
//! must ship identical traffic and leave identical states.
//!
//! Two shapes:
//!
//! * **40 + 40 disjoint keys** — 80 keys in the union but 40 per side.
//!   Both drivers apply one threshold rule (either side's keyspace
//!   reaches `MERKLE_REPAIR_THRESHOLD`), so both run the plain digest
//!   sweep here;
//! * **2 K shared keys, 1 % diverged** — both localize with a Merkle
//!   descent first.

use crdt_lattice::{ReplicaId, SizeModel};
use crdt_sim::{KeyedOp, ShardedEngineRunner, Topology};
use crdt_sync::digest::PairSyncStats;
use crdt_sync::ProtocolKind;
use crdt_types::{GSet, GSetOp};
use delta_store::{Cluster, StoreConfig};

type Key = u64;
type Val = GSet<u32>;
type Runner = ShardedEngineRunner<Key, Val>;

/// One `(node, key, element)` update list, applied to both drivers.
type Updates = Vec<(usize, Key, u32)>;

/// Apply `shared` and let both drivers converge, then cut the pair,
/// apply `diverged` and drain the δ-buffers into the cut — so only
/// repair can reconcile the two sides.
fn diverge(shared: &Updates, diverged: &Updates) -> (Runner, Cluster<Key, Val>) {
    let mut runner: Runner = ShardedEngineRunner::new(
        ProtocolKind::BpRr,
        Topology::full_mesh(2),
        SizeModel::compact(),
        1,
    );
    let mut cluster: Cluster<Key, Val> =
        Cluster::full_mesh(2, StoreConfig::new(ProtocolKind::BpRr));
    let round = |updates: &Updates| {
        let mut ops: Vec<Vec<KeyedOp<Key, Val>>> = vec![Vec::new(); 2];
        for &(node, key, elem) in updates {
            ops[node].push((key, GSetOp::Add(elem)));
        }
        ops
    };

    runner.step(&round(shared));
    runner.run_to_convergence(4).expect("runner warm-up");
    for &(node, key, elem) in shared {
        cluster.update(node, key, &GSetOp::Add(elem));
    }
    cluster
        .run_until_converged(4)
        .expect_converged("cluster warm-up");

    runner.set_partition(&[vec![0]]);
    runner.step(&round(diverged));
    cluster.partition(&[0]);
    for &(node, key, elem) in diverged {
        cluster.update(node, key, &GSetOp::Add(elem));
    }
    cluster.sync_round();
    cluster.heal();
    (runner, cluster)
}

/// Repair both drivers' pair (0, 1) and return the runner's traffic
/// after checking it against the cluster's, state included.
fn repair_both(shared: &Updates, diverged: &Updates) -> PairSyncStats {
    let (mut runner, mut cluster) = diverge(shared, diverged);
    runner.repair_pair(ReplicaId(0), ReplicaId(1));
    let from_cluster = cluster.merkle_repair(0, 1);
    assert_eq!(runner.repair_stats(), from_cluster, "repair traffic");
    for node in 0..2 {
        let id = ReplicaId::from(node);
        assert_eq!(
            runner.objects_at(id),
            cluster.replica(node).len(),
            "node {node}"
        );
        for (key, state) in cluster.replica(node).iter() {
            assert_eq!(
                runner.object_state(id, key),
                Some(state),
                "node {node} key {key}"
            );
        }
    }
    assert!(cluster.converged(), "the cluster pair converged");
    assert!(runner.converged(), "the runner pair converged");
    from_cluster
}

#[test]
fn disjoint_halves_below_the_threshold_agree() {
    let diverged: Updates = (0..80).map(|k| ((k / 40) as usize, k, k as u32)).collect();
    let stats = repair_both(&Vec::new(), &diverged);
    // A sweep: one 3-message handshake per key, no descent frames.
    assert_eq!(stats.messages, 3 * 80);
    assert_eq!(stats.payload_elements, 80);
}

#[test]
fn one_percent_divergence_at_2k_keys_agrees() {
    let shared: Updates = (0..2_000).map(|k| (0, k, k as u32)).collect();
    // 20 keys (1 %) gain an element, alternating sides.
    let diverged: Updates = (0..20)
        .map(|i| ((i % 2) as usize, i * 100, 1_000_000 + i as u32))
        .collect();
    let stats = repair_both(&shared, &diverged);
    assert_eq!(stats.payload_elements, 20);
    assert!(
        stats.messages < 3 * 2_000 / 10,
        "the descent localized the sweep ({} messages)",
        stats.messages
    );
}
