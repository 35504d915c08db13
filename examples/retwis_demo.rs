//! Retwis in action: a small social network replicated over a 10-node
//! mesh with per-object delta synchronization.
//!
//! ```text
//! cargo run --release -p crdt-bench --example retwis_demo
//! ```

use crdt_lattice::ReplicaId;
use crdt_lattice::SizeModel;
use crdt_sim::{ShardedEngineRunner, Topology};
use crdt_sync::ProtocolKind;
use crdt_types::GSet;
use crdt_workloads::{RetwisConfig, RetwisStore, RetwisTrace, Timeline, UserId, Wall};

fn main() {
    let topo = Topology::partial_mesh(10, 4);
    let model = SizeModel::compact();
    let cfg = RetwisConfig {
        n_users: 200,
        zipf: 1.0,
        ops_per_node_per_round: 3,
        max_fanout: 10,
        seed: 2024,
    };
    let rounds = 12;
    let trace = RetwisTrace::generate(cfg, topo.len(), rounds);
    println!(
        "generated {} rounds: {} follows, {} posts, {} timeline reads ({} CRDT updates)",
        rounds,
        trace.stats.follows,
        trace.stats.posts,
        trace.stats.timeline_reads,
        trace.total_updates(),
    );

    // One sharded runner per object family, all BP+RR.
    let mut followers: ShardedEngineRunner<UserId, GSet<UserId>> =
        ShardedEngineRunner::new(ProtocolKind::BpRr, topo.clone(), model, 1);
    let mut walls: ShardedEngineRunner<UserId, Wall> =
        ShardedEngineRunner::new(ProtocolKind::BpRr, topo.clone(), model, 1);
    let mut timelines: ShardedEngineRunner<UserId, Timeline> =
        ShardedEngineRunner::new(ProtocolKind::BpRr, topo.clone(), model, 1);

    for round in &trace.rounds {
        followers.step(
            &round
                .iter()
                .map(|n| n.followers.clone())
                .collect::<Vec<_>>(),
        );
        walls.step(&round.iter().map(|n| n.walls.clone()).collect::<Vec<_>>());
        timelines.step(
            &round
                .iter()
                .map(|n| n.timelines.clone())
                .collect::<Vec<_>>(),
        );
    }
    let f = followers
        .run_to_convergence(64)
        .expect("followers converge");
    let w = walls.run_to_convergence(64).expect("walls converge");
    let t = timelines
        .run_to_convergence(64)
        .expect("timelines converge");
    println!("converged after {} extra rounds", f.max(w).max(t));

    // Read the hot user's world from an arbitrary replica.
    let observer = ReplicaId(7);
    let hot: UserId = 0;
    if let Some(set) = followers.object_state(observer, &hot) {
        println!(
            "\nuser {hot} has {} followers (read at node {observer})",
            set.len()
        );
    }
    if let Some(wall) = walls.object_state(observer, &hot) {
        println!("user {hot} posted {} tweets", wall.len());
    }
    if let Some(tl) = timelines.object_state(observer, &hot) {
        let mut entries: Vec<_> = tl.iter().map(|(ts, id)| (*ts, id.get().clone())).collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.0));
        println!(
            "user {hot}'s timeline, newest first (top {}):",
            entries.len().min(5)
        );
        for (ts, id) in entries.iter().take(5) {
            println!("  ts={ts:<6} {id}");
        }
    }

    // The same data also works as one composed store lattice, if you'd
    // rather hold it in a single value:
    let mut composed = RetwisStore::new();
    use crdt_types::Crdt;
    let _ = composed.apply(&crdt_workloads::RetwisOp::Follow {
        follower: 1,
        followee: 0,
    });
    println!(
        "\n(composed-store view also available: {:?})",
        composed.value()
    );

    let m = followers
        .metrics()
        .merged(walls.metrics())
        .merged(timelines.metrics());
    println!(
        "totals: {} messages, {} elements, {} payload bytes",
        m.total_messages(),
        m.total_elements(),
        m.total_payload_bytes()
    );
}
