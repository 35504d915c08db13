//! End-to-end Retwis integration: the application semantics survive
//! replication — every replica eventually serves the same timelines,
//! walls and follower sets, whichever delta variant synchronized them.

use crdt_lattice::{ReplicaId, SizeModel};
use crdt_sim::{ShardedEngineRunner, Topology};
use crdt_sync::ProtocolKind;
use crdt_types::GSet;
use crdt_workloads::{
    NodeTraceOps, RetwisConfig, RetwisStore, RetwisTrace, RetwisWorkload, Timeline, UserId, Wall,
};

const MODEL: SizeModel = SizeModel::compact();

struct RetwisRun {
    followers: ShardedEngineRunner<UserId, GSet<UserId>>,
    walls: ShardedEngineRunner<UserId, Wall>,
    timelines: ShardedEngineRunner<UserId, Timeline>,
}

fn run_trace(trace: &RetwisTrace, topo: &Topology, kind: ProtocolKind) -> RetwisRun {
    let mut run = RetwisRun {
        followers: ShardedEngineRunner::new(kind, topo.clone(), MODEL, 1),
        walls: ShardedEngineRunner::new(kind, topo.clone(), MODEL, 1),
        timelines: ShardedEngineRunner::new(kind, topo.clone(), MODEL, 1),
    };
    for round in &trace.rounds {
        run.followers.step(
            &round
                .iter()
                .map(|n| n.followers.clone())
                .collect::<Vec<_>>(),
        );
        run.walls
            .step(&round.iter().map(|n| n.walls.clone()).collect::<Vec<_>>());
        run.timelines.step(
            &round
                .iter()
                .map(|n| n.timelines.clone())
                .collect::<Vec<_>>(),
        );
    }
    run.followers
        .run_to_convergence(64)
        .expect("followers converge");
    run.walls.run_to_convergence(64).expect("walls converge");
    run.timelines
        .run_to_convergence(64)
        .expect("timelines converge");
    run
}

fn small_trace(zipf: f64, topo: &Topology) -> RetwisTrace {
    RetwisTrace::generate(
        RetwisConfig {
            n_users: 150,
            zipf,
            ops_per_node_per_round: 3,
            max_fanout: 8,
            seed: 77,
        },
        topo.len(),
        6,
    )
}

#[test]
fn all_delta_variants_agree_on_application_state() {
    let topo = Topology::partial_mesh(8, 4);
    let trace = small_trace(1.0, &topo);

    let classic = run_trace(&trace, &topo, ProtocolKind::Classic);
    let bprr = run_trace(&trace, &topo, ProtocolKind::BpRr);
    let bp = run_trace(&trace, &topo, ProtocolKind::Bp);
    let rr = run_trace(&trace, &topo, ProtocolKind::Rr);

    // Spot-check the hottest users' objects across configurations and
    // replicas.
    let observer_a = ReplicaId(0);
    let observer_b = ReplicaId(5);
    for user in 0..10u32 {
        let f = classic.followers.object_state(observer_a, &user);
        assert_eq!(
            f,
            bprr.followers.object_state(observer_b, &user),
            "user {user} followers"
        );
        assert_eq!(f, bp.followers.object_state(observer_a, &user));
        assert_eq!(f, rr.followers.object_state(observer_b, &user));

        let w = classic.walls.object_state(observer_a, &user);
        assert_eq!(
            w,
            bprr.walls.object_state(observer_b, &user),
            "user {user} wall"
        );

        let t = classic.timelines.object_state(observer_a, &user);
        assert_eq!(
            t,
            bprr.timelines.object_state(observer_b, &user),
            "user {user} timeline"
        );
    }
}

#[test]
fn replicated_data_matches_a_sequential_oracle() {
    // Apply the same trace to one local RetwisStore (no replication) and
    // compare object contents with the replicated deployment.
    let topo = Topology::binary_tree(7);
    let trace = small_trace(0.8, &topo);
    let replicated = run_trace(&trace, &topo, ProtocolKind::BpRr);

    use crdt_types::{Crdt, GMapOp, GSetOp};
    let mut oracle = RetwisStore::new();
    for round in &trace.rounds {
        for NodeTraceOps {
            followers,
            walls,
            timelines,
        } in round
        {
            for (owner, GSetOp::Add(follower)) in followers {
                let _ = oracle.apply(&crdt_workloads::RetwisOp::Follow {
                    follower: *follower,
                    followee: *owner,
                });
            }
            for (author, GMapOp::Apply { key, value }) in walls {
                // Re-wrap as a Post touching only the wall.
                let _ = oracle.apply(&crdt_workloads::RetwisOp::Post {
                    author: *author,
                    tweet_id: key.clone(),
                    content: value.get().clone(),
                    ts: 0,
                    recipients: vec![],
                });
            }
            let _ = timelines;
        }
    }

    let observer = ReplicaId(3);
    for user in 0..20u32 {
        let replicated_followers = replicated
            .followers
            .object_state(observer, &user)
            .map(|s| s.value().clone())
            .unwrap_or_default();
        let oracle_followers = oracle
            .followers_of(user)
            .map(|s| s.value().clone())
            .unwrap_or_default();
        assert_eq!(replicated_followers, oracle_followers, "user {user}");
    }
}

#[test]
fn timeline_reads_are_consistent_across_replicas() {
    let topo = Topology::ring(6);
    let trace = small_trace(1.2, &topo);
    let run = run_trace(&trace, &topo, ProtocolKind::BpRr);
    for user in 0..30u32 {
        let views: Vec<_> = (0..6)
            .map(|n| run.timelines.object_state(ReplicaId(n), &user).cloned())
            .collect();
        for v in &views[1..] {
            assert_eq!(&views[0], v, "user {user} timeline view");
        }
    }
}

#[test]
fn composed_store_and_sharded_runners_agree() {
    // The same workload through the single composed lattice (one
    // RetwisStore CRDT) must produce the same follower sets as the
    // per-object deployment.
    use crdt_sim::Workload;
    use crdt_types::Crdt;

    let cfg = RetwisConfig {
        n_users: 100,
        zipf: 1.0,
        ops_per_node_per_round: 4,
        max_fanout: 5,
        seed: 123,
    };
    let n_nodes = 5;
    let rounds = 4;

    // Composed: apply everything at one replica (order irrelevant — all
    // ops commute through joins).
    let mut w = RetwisWorkload::new(cfg);
    let mut composed = RetwisStore::new();
    for round in 0..rounds {
        for node in 0..n_nodes {
            for op in Workload::<RetwisStore>::ops(&mut w, ReplicaId::from(node), round) {
                let _ = composed.apply(&op);
            }
        }
    }

    // Sharded: same trace, replicated, then read back from a replica.
    let topo = Topology::full_mesh(n_nodes);
    let trace = RetwisTrace::generate(cfg, n_nodes, rounds);
    let run = run_trace(&trace, &topo, ProtocolKind::BpRr);

    for user in 0..100u32 {
        let sharded = run
            .followers
            .object_state(ReplicaId(0), &user)
            .map(|s| s.value().clone())
            .unwrap_or_default();
        let composed_set = composed
            .followers_of(user)
            .map(|s| s.value().clone())
            .unwrap_or_default();
        assert_eq!(sharded, composed_set, "user {user}");
    }
}
