//! The thread-parallel phase model.
//!
//! Replicas at different nodes share nothing, so within a round the
//! expensive phases — applying operations, running synchronization
//! steps, absorbing delivered batches — parallelize across nodes.
//! [`crate::ShardedEngineRunner`] keeps sequential semantics exactly:
//!
//! * each phase runs contiguous node chunks, one per thread;
//! * messages are delivered grouped by recipient, each recipient
//!   processed by exactly one thread, in a deterministic
//!   (sender, emission-index) order;
//! * reply waves (push-pull protocols) loop until quiescence.
//!
//! Fault injection through the seeded [`crate::Network`] is not
//! supported here (its RNG is inherently sequential); use
//! [`crate::Runner`] or [`crate::DynRunner`] for chaos testing.

/// Split `items` into contiguous per-thread chunks and run `work` on each
/// `(index, item)` in parallel; collect per-item outputs in item order.
///
/// The chunking is identical to [`crate::metrics::phase_split`]'s — the
/// two must stay in lockstep, or per-phase critical paths would be
/// computed over chunks that never ran.
pub(crate) fn par_map_chunked<N: Send, T: Send + Default>(
    items: &mut [N],
    threads: usize,
    work: impl Fn(usize, &mut N) -> T + Sync,
) -> Vec<T> {
    let n = items.len();
    let chunk = n.div_ceil(threads).max(1);
    let mut results: Vec<T> = Vec::with_capacity(n);
    results.resize_with(n, T::default);
    std::thread::scope(|scope| {
        let work = &work;
        for ((start, item_chunk), result_chunk) in (0..n)
            .step_by(chunk)
            .zip(items.chunks_mut(chunk))
            .zip(results.chunks_mut(chunk))
        {
            scope.spawn(move || {
                for (offset, (item, slot)) in item_chunk
                    .iter_mut()
                    .zip(result_chunk.iter_mut())
                    .enumerate()
                {
                    *slot = work(start + offset, item);
                }
            });
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use crate::metrics::phase_split;
    use crate::network::NetworkConfig;
    use crate::runner::Runner;
    use crate::{KeyedOp, ShardedEngineRunner, Topology};
    use crdt_lattice::{ReplicaId, SizeModel};
    use crdt_sync::{BpRrDelta, Protocol, ProtocolKind};
    use crdt_types::{GSet, GSetOp};

    /// One object per run (key 0): the sharded runner reduces to a
    /// single-object cluster.
    type R = ShardedEngineRunner<u32, GSet<u64>>;
    type RoundOps = Vec<Vec<KeyedOp<u32, GSet<u64>>>>;

    /// `events` rounds of one unique add per node, all on key 0.
    fn unique_adds(n: usize, events: usize) -> Vec<RoundOps> {
        (0..events)
            .map(|round| {
                (0..n)
                    .map(|node| vec![(0, GSetOp::Add((round * n + node) as u64))])
                    .collect()
            })
            .collect()
    }

    fn sharded(kind: ProtocolKind, topo: Topology, threads: usize, events: usize) -> R {
        let n = topo.len();
        let mut r: R = ShardedEngineRunner::new(kind, topo, SizeModel::compact(), threads);
        r.run_rounds(&unique_adds(n, events));
        r.run_to_convergence(64).expect("converges");
        r
    }

    #[test]
    fn matches_sequential_runner_exactly() {
        let (n, events) = (10, 8);
        let topo = Topology::partial_mesh(n, 4);

        let mut seq: Runner<GSet<u64>, BpRrDelta<GSet<u64>>> = Runner::new(
            topo.clone(),
            NetworkConfig::reliable(0),
            SizeModel::compact(),
        );
        let mut ops = |node: ReplicaId, round: usize| {
            if round >= events {
                return Vec::new();
            }
            vec![GSetOp::Add((round * n + node.index()) as u64)]
        };
        seq.run(&mut ops, events);
        seq.run_to_convergence(64).unwrap();

        let par = sharded(ProtocolKind::BpRr, topo, 4, events);
        assert_eq!(
            Some(seq.node(ReplicaId(0)).state()),
            par.object_state(ReplicaId(0), &0)
        );
        // Transmission accounting is identical: one object means one
        // envelope per frame, and message contents and counts do not
        // depend on scheduling. (Metadata differs by the object key the
        // batch frame carries.)
        let (s, p) = (seq.metrics(), par.metrics());
        assert_eq!(s.total_elements(), p.total_elements());
        assert_eq!(s.total_messages(), p.total_messages());
        assert_eq!(s.total_payload_bytes(), p.total_payload_bytes());
    }

    #[test]
    fn push_pull_replies_complete_within_round() {
        let (n, events) = (8, 5);
        let par = sharded(ProtocolKind::Scuttlebutt, Topology::ring(n), 3, events);
        assert_eq!(
            par.object_state(ReplicaId(3), &0).unwrap().len(),
            n * events
        );
    }

    #[test]
    fn phase_nanos_splits_work_and_critical_path() {
        // 4 nodes on 2 threads → chunks [7, 1] and [4, 4].
        let (work, critical) = phase_split(&[7, 1, 4, 4], 2);
        assert_eq!(work, 16);
        assert_eq!(critical, 8);
        // One thread: critical path is all the work.
        let (work, critical) = phase_split(&[7, 1, 4, 4], 1);
        assert_eq!(work, critical);
        assert_eq!(phase_split(&[], 4), (0, 0));
    }

    #[test]
    fn critical_path_is_bounded_by_total_work() {
        let par = sharded(ProtocolKind::BpRr, Topology::partial_mesh(10, 4), 4, 6);
        let m = par.metrics();
        assert!(m.total_cpu_nanos() > 0);
        assert!(m.total_critical_path_nanos() > 0);
        assert!(
            m.total_critical_path_nanos() <= m.total_cpu_nanos(),
            "critical path {} must never exceed summed work {}",
            m.total_critical_path_nanos(),
            m.total_cpu_nanos()
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads: usize| {
            let par = sharded(ProtocolKind::BpRr, Topology::binary_tree(9), threads, 6);
            (
                par.object_state(ReplicaId(0), &0).cloned(),
                par.metrics().total_elements(),
            )
        };
        let (s1, t1) = run(1);
        let (s4, t4) = run(4);
        let (s16, t16) = run(16);
        assert_eq!(s1, s4);
        assert_eq!(s4, s16);
        assert_eq!(t1, t4);
        assert_eq!(t4, t16);
    }
}
