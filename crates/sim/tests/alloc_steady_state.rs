//! The pooling acceptance test: steady-state rounds of the sharded
//! runner perform O(1) payload allocations **in the object count**.
//!
//! Before the zero-copy refactor, every envelope's payload was its own
//! `Vec<u8>` and every batch decode re-vectored every entry, so round
//! cost scaled with the keyspace. With shared-`Bytes` payloads and
//! per-replica `BufferPool`s, an idle (converged) round allocates only
//! the fixed per-phase plumbing, and an active round scales with the
//! *touched* objects — both independent of how many objects exist.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one measuring test.

use crdt_lattice::SizeModel;
use crdt_sim::{ShardedEngineRunner, Topology};
use crdt_sync::ProtocolKind;
use crdt_types::{GSet, GSetOp};

#[global_allocator]
static ALLOC: testkit_alloc::CountingAllocator = testkit_alloc::CountingAllocator;

type Runner = ShardedEngineRunner<u32, GSet<u64>>;
type RoundOps = Vec<Vec<(u32, GSetOp<u64>)>>;

const NODES: usize = 4;
const THREADS: usize = 2;

/// Build a converged runner hosting `objects` distinct objects per node,
/// with warm pools (one idle and one active round already executed).
fn warm_runner(objects: usize) -> Runner {
    let mut r: Runner = ShardedEngineRunner::new(
        ProtocolKind::BpRr,
        Topology::full_mesh(NODES),
        SizeModel::compact(),
        THREADS,
    );
    let seed: RoundOps = (0..NODES)
        .map(|n| {
            (0..objects)
                .map(|k| (k as u32, GSetOp::Add((n * objects + k) as u64)))
                .collect()
        })
        .collect();
    r.step(&seed);
    r.run_to_convergence(32).expect("warm-up converges");
    r.step(&idle());
    r.step(&active(0));
    r.run_to_convergence(32).expect("still converged");
    r
}

fn idle() -> RoundOps {
    vec![Vec::new(); NODES]
}

/// Four ops per node on a fixed handful of objects, unique elements per
/// `epoch` so the ops are never no-ops.
fn active(epoch: u64) -> RoundOps {
    (0..NODES)
        .map(|n| {
            (0..4u32)
                .map(|k| {
                    (
                        k,
                        GSetOp::Add(1_000_000 + epoch * 1_000 + (n as u64) * 10 + u64::from(k)),
                    )
                })
                .collect()
        })
        .collect()
}

fn allocs(r: &mut Runner, ops: &RoundOps) -> u64 {
    let (_, stats) = testkit_alloc::measure(|| r.step(ops));
    stats.allocations
}

#[test]
fn steady_state_allocations_do_not_scale_with_object_count() {
    assert!(
        testkit_alloc::is_installed(),
        "the counting allocator must be this binary's global allocator"
    );

    let (small_objects, large_objects) = (64, 2048);
    let mut small = warm_runner(small_objects);
    let mut large = warm_runner(large_objects);

    // Idle converged rounds: nothing dirty, nothing sent — per-round
    // allocations are fixed phase plumbing, identical across a 32×
    // keyspace-size gap (generous slack for one-off container growth).
    let idle_small = allocs(&mut small, &idle());
    let idle_large = allocs(&mut large, &idle());
    assert!(
        idle_large <= idle_small * 2 + 64,
        "idle round allocations scale with object count: \
         {idle_small} at {small_objects} objects vs {idle_large} at {large_objects}"
    );

    // Active rounds touching a fixed 4 objects/node: allocations track
    // the touched set, not the keyspace.
    let active_small = allocs(&mut small, &active(1));
    let active_large = allocs(&mut large, &active(1));
    assert!(
        active_large <= active_small * 2 + 64,
        "active round allocations scale with object count: \
         {active_small} at {small_objects} objects vs {active_large} at {large_objects}"
    );

    // And the runners still agree with themselves: accounting unchanged
    // by the measuring round.
    small.run_to_convergence(16).expect("small reconverges");
    large.run_to_convergence(16).expect("large reconverges");
}
