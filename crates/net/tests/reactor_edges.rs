//! Reactor edge cases: the failure modes an event-driven runtime must
//! survive that a thread-per-peer runtime never sees.
//!
//! * **Slow consumers** — a bounded inbox stalls reads instead of
//!   growing without bound, and no frame is lost: the backlog parks in
//!   the kernel socket buffer until the consumer absorbs.
//! * **Half-open connections** — a dialer that never completes a frame
//!   is pruned by the readiness loop; one that has spoken is kept.
//! * **Reconnect storms** — in their own binary, `reconnect_storm.rs`.
//! * **Scheduled compaction** — the timer wheel's `compact()` holds
//!   synchronization metadata flat under churn on a live node.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crdt_lattice::ReplicaId;
use crdt_net::{LoopbackCluster, NetClient, NodeConfig, NodeHandle};
use crdt_sync::ProtocolKind;
use crdt_types::{GSet, GSetOp};
use delta_store::StoreConfig;

const A: ReplicaId = ReplicaId(0);
const B: ReplicaId = ReplicaId(1);

type Node = NodeHandle<u64, GSet<u64>>;

fn cfg(protocol: ProtocolKind) -> NodeConfig {
    NodeConfig::new(StoreConfig::new(protocol), 2)
}

/// Poll `probe` until it returns true or `timeout` passes.
fn eventually(timeout: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if probe() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A consumer that never absorbs holds its inbox at the configured
/// bound — reads stall (counted) and the backlog backs up into TCP —
/// and once it does absorb, every frame the producer sent lands: the
/// policy is stall, never drop.
#[test]
fn bounded_inbox_stalls_reads_without_loss() {
    const INBOX: usize = 4;
    const FRAMES: u64 = 32;
    let a: Node = NodeHandle::spawn(A, cfg(ProtocolKind::BpRr)).unwrap();
    let b: Node = NodeHandle::spawn(B, cfg(ProtocolKind::BpRr).with_inbox_capacity(INBOX)).unwrap();
    a.connect(B, b.addr()).unwrap();

    // Externally driven producer: each update + sync ships one batch
    // frame to the silent consumer.
    for i in 0..FRAMES {
        a.update(1, &GSetOp::Add(i));
        a.sync_now();
    }
    let sent = a
        .frames_sent_to()
        .into_iter()
        .find(|(to, _)| *to == B)
        .map_or(0, |(_, n)| n);
    assert!(sent > INBOX as u64, "producer must overrun the inbox");

    // The inbox fills to its bound and stops: reads stall.
    assert!(
        eventually(Duration::from_secs(5), || {
            let p = b.probe_local();
            p.inbox_len == INBOX as u64 && p.stall_events > 0
        }),
        "consumer never reached the stalled-full state: {:?}",
        b.probe_local()
    );
    // Held stalled, the inbox never exceeds its bound.
    for _ in 0..20 {
        assert!(
            b.probe_local().inbox_len <= INBOX as u64,
            "bounded inbox grew past its capacity"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Absorbing drains the backlog; every frame sent eventually lands —
    // backpressure delayed them, nothing dropped them.
    assert!(
        eventually(Duration::from_secs(5), || {
            b.absorb_pending();
            let landed = b
                .frames_landed_from()
                .into_iter()
                .find(|(from, _)| *from == A)
                .map_or(0, |(_, n)| n);
            landed == sent
        }),
        "stalled frames never landed: sent {sent}, probe {:?}",
        b.probe_local()
    );
    let p = b.probe_local();
    assert_eq!(p.bad_frames, 0);
    assert_eq!(p.queue_dropped_frames, 0);
    a.shutdown_untyped();
    b.shutdown_untyped();
}

/// A connection that never completes a frame is half-open debris: the
/// readiness loop prunes it after the timeout, and the node keeps
/// serving.
#[test]
fn half_open_connections_are_pruned() {
    let node: Node = NodeHandle::spawn(
        A,
        cfg(ProtocolKind::BpRr).with_half_open_timeout(Duration::from_millis(150)),
    )
    .unwrap();

    // Dial and send two bytes of a length prefix — then go silent.
    let mut half_open = TcpStream::connect(node.addr()).unwrap();
    half_open.write_all(&[0x10, 0x00]).unwrap();
    assert!(
        eventually(Duration::from_secs(2), || node.live_connections() == 1),
        "half-open connection was never registered"
    );

    // The prune fires after the timeout; the socket stays held open on
    // our side the whole time — the *server* gives up on it.
    assert!(
        eventually(Duration::from_secs(3), || node.live_connections() == 0),
        "half-open connection survived the timeout"
    );

    // The node is unwedged: a real client connects and is served.
    let mut client: NetClient<u64, GSet<u64>> =
        NetClient::connect(node.addr(), crdt_net::framing::DEFAULT_MAX_FRAME_BYTES).unwrap();
    let report = client.probe().unwrap();
    assert_eq!(report.node, A);
    drop(half_open);
    node.shutdown_untyped();
}

/// The timer wheel's scheduled `compact()` (ROADMAP item 1 follow-on):
/// under steady churn on a live free-running pair, causal-stability
/// compaction holds synchronization metadata flat, while the identical
/// workload without the compaction timer accretes every epoch's deltas.
/// Plain Scuttlebutt is the vehicle — nothing prunes its dot store
/// except `compact()`.
#[test]
fn scheduled_compaction_keeps_metadata_flat_under_churn() {
    const KEYS: u64 = 8;
    const EPOCHS: u64 = 30;
    let base = NodeConfig::new(StoreConfig::new(ProtocolKind::Scuttlebutt), 2)
        .with_scheduler(Duration::from_millis(1));
    let compacted_cfg = base.with_compaction(Duration::from_millis(2));

    let mut compacted: LoopbackCluster<u64, GSet<u64>> =
        LoopbackCluster::full_mesh(2, compacted_cfg).unwrap();
    let mut accreting: LoopbackCluster<u64, GSet<u64>> =
        LoopbackCluster::full_mesh(2, base).unwrap();

    for e in 0..EPOCHS {
        for k in 0..KEYS {
            compacted.update(0, k, &GSetOp::Add(e * 10_000 + k));
            compacted.update(1, k, &GSetOp::Add(e * 10_000 + 5_000 + k));
            accreting.update(0, k, &GSetOp::Add(e * 10_000 + k));
            accreting.update(1, k, &GSetOp::Add(e * 10_000 + 5_000 + k));
        }
        // Let the schedulers exchange and the compaction timer fire.
        std::thread::sleep(Duration::from_millis(4));
    }
    let report = compacted.await_convergence(Duration::from_secs(10));
    assert!(
        report.converged,
        "compacted pair failed to converge: {report}"
    );
    let report = accreting.await_convergence(Duration::from_secs(10));
    assert!(
        report.converged,
        "accreting pair failed to converge: {report}"
    );
    // One more beat so the compaction timer runs over the final,
    // fully-exchanged knowledge frontier.
    std::thread::sleep(Duration::from_millis(20));

    let flat = compacted.node(0).memory();
    let grown = accreting.node(0).memory();
    // Same live CRDT state on both…
    assert_eq!(flat.crdt_elements, grown.crdt_elements);
    for k in 0..KEYS {
        assert_eq!(
            compacted.get(0, k),
            accreting.get(0, k),
            "compaction changed state at {k}"
        );
    }
    // …but the compacted node's metadata is a fraction of the twin's
    // retained history (factor 2 is lenient: the true gap is ~EPOCHS×).
    assert!(
        flat.meta_bytes * 2 <= grown.meta_bytes,
        "scheduled compaction did not bound metadata: {} B compacted vs {} B accreted",
        flat.meta_bytes,
        grown.meta_bytes
    );
}
