//! `live-3node`: an open-loop client against a free-running 3-node
//! `LoopbackCluster`, with update-to-visible latency measured at the
//! other two nodes.
//!
//! Two threads drive it. The generator sends 75% updates (each adds a
//! unique element) and 25% gets at a fixed rate over one `NetClient` to
//! node 0, reconnecting every [`FRESH_EVERY`]th request so connection
//! set-up stays on the measured path. The poller reads nodes 1 and 2
//! in-process (`NodeHandle::get`) until every [`MARK_EVERY`]th update's
//! element shows up at both.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crdt_net::framing::DEFAULT_MAX_FRAME_BYTES;
use crdt_net::{LoopbackCluster, NetClient, NodeConfig, NodeHandle};
use crdt_types::{GSet, GSetOp};
use crdt_workloads::Zipf;
use delta_store::StoreConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{ms, us};
use crate::trace::{Span, Tracer};
use crate::{add_deltas, obs_counters, Samples};

pub const NODES: usize = 3;
pub const KEYS: u64 = 1024;
/// Offered load, requests per second: a sixth of the measured
/// single-connection saturation (~6,000/s). At 2,000/s the nodes, the
/// generator and the poller kept the 2 cores busy enough that the write
/// p90 of a run swung between 0.35 and 1.2 ms with other tenants' load.
pub const RATE: f64 = 1000.0;
/// Requests every trial sends: 3 s at [`RATE`].
pub const REQUESTS: u64 = 3000;
pub const UPDATE_SHARE: f64 = 0.75;
pub const FRESH_EVERY: u64 = 64;
pub const MARK_EVERY: u64 = 8;
pub const ANTI_ENTROPY: Duration = Duration::from_millis(10);
/// Three anti-entropy intervals: a cluster that ships no sync bytes for
/// this long has flushed every δ-buffer.
const QUIET: Duration = Duration::from_millis(30);
/// A request sent more than this after its due time counts as late.
pub const LATE: Duration = Duration::from_millis(1);
const POLL_GAP: Duration = Duration::from_micros(250);
/// How long after the last update a marker may take to become visible
/// before it counts as a failed check.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(5);
/// Preloaded elements sit above every request's element.
const PRELOAD_BASE: u64 = 1 << 48;

type Cluster = LoopbackCluster<u64, GSet<u64>>;
type Client = NetClient<u64, GSet<u64>>;
type Node = NodeHandle<u64, GSet<u64>>;

pub struct Fixture {
    cluster: Cluster,
    /// Next unique element an update adds.
    next_elem: u64,
    /// Newest element acked per key, which every later get at node 0
    /// must return.
    last_elem: BTreeMap<u64, u64>,
}

/// The request mix's key distribution and seed, shared by every trial.
pub struct Input {
    zipf: Zipf,
    seed: u64,
}

/// A marked update, waiting to be seen at nodes 1 and 2.
struct Marker {
    key: u64,
    elem: u64,
    acked: Instant,
}

#[derive(Debug, Default)]
struct GenOut {
    /// µs from due to reply.
    update_us: Vec<f64>,
    updates: u64,
    requests: u64,
    late: u64,
    errors: u64,
    stale_reads: u64,
}

#[derive(Debug, Default)]
struct PollOut {
    visible_ms: Vec<f64>,
    unseen: u64,
}

impl Fixture {
    fn setup() -> std::io::Result<Self> {
        let cfg = NodeConfig::new(StoreConfig::default(), NODES)
            .with_scheduler(ANTI_ENTROPY)
            .with_workers(1);
        let mut cluster = Cluster::full_mesh(NODES, cfg)?;
        for k in 0..KEYS {
            cluster
                .node(k as usize % NODES)
                .update(k, &GSetOp::Add(PRELOAD_BASE + k));
        }
        let report = cluster.await_convergence(Duration::from_secs(10));
        if !report.converged {
            return Err(std::io::Error::other(format!(
                "preload did not converge: {report}"
            )));
        }
        Ok(Fixture {
            cluster,
            next_elem: 0,
            last_elem: (0..KEYS).map(|k| (k, PRELOAD_BASE + k)).collect(),
        })
    }

    /// Wait until no node ships sync bytes for [`QUIET`]. States can
    /// agree while δ-buffers still hold redundant copies, which go out at
    /// the next anti-entropy ticks: without this, whether the preload's
    /// flush landed before or inside the first measured interval decided
    /// a trial's bytes per update (11.4 or 18.6 B).
    fn settle(&self) {
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut last = self.totals()["engine.sync.bytes"];
        while Instant::now() < deadline {
            std::thread::sleep(QUIET);
            let now = self.totals()["engine.sync.bytes"];
            if now == last {
                return;
            }
            last = now;
        }
    }

    /// Every node's `OBS_COUNTERS`, summed.
    fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut sum = BTreeMap::new();
        for i in 0..NODES {
            let exposition = self.cluster.node(i).obs().registry.exposition();
            for (name, v) in obs_counters(&exposition) {
                *sum.entry(name).or_insert(0) += v;
            }
        }
        sum
    }
}

/// The open-loop generator: request `i` is due at `i / RATE` seconds.
#[allow(clippy::too_many_arguments)]
fn generate(
    addr: SocketAddr,
    zipf: &Zipf,
    mut rng: StdRng,
    n_requests: u64,
    next_elem: &mut u64,
    last_elem: &mut BTreeMap<u64, u64>,
    markers: mpsc::Sender<Marker>,
    mut t: Tracer,
    out: &mut GenOut,
) -> Vec<Span> {
    let mut client: Option<Client> = None;
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let start = Instant::now();
    for i in 0..n_requests {
        let due = start + interval * i as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if Instant::now().saturating_duration_since(due) > LATE {
            out.late += 1;
        }
        t.set_id(i);
        let root = t.begin("bench.request");
        let key = t.span("workloads.zipf.sample", || zipf.sample(&mut rng)) as u64;
        let is_update = rng.gen::<f64>() < UPDATE_SHARE;
        out.requests += 1;
        let fresh = i % FRESH_EVERY == 0 || client.is_none();
        if fresh {
            drop(client.take());
            match t.span("net.client.connect", || {
                Client::connect(addr, DEFAULT_MAX_FRAME_BYTES)
            }) {
                Ok(c) => client = Some(c),
                Err(_) => {
                    out.errors += 1;
                    t.end(root);
                    continue;
                }
            }
        }
        let c = client.as_mut().expect("connected above");
        let ok = if is_update {
            let elem = *next_elem;
            *next_elem += 1;
            let res = t.span("net.client.update", || c.update(key, &GSetOp::Add(elem)));
            let done = Instant::now();
            if res.is_ok() {
                out.update_us.push(us(done - due));
                out.updates += 1;
                last_elem.insert(key, elem);
                if out.updates.is_multiple_of(MARK_EVERY) {
                    let _ = markers.send(Marker {
                        key,
                        elem,
                        acked: done,
                    });
                }
            }
            res.is_ok()
        } else {
            match t.span("net.client.get", || c.get(key)) {
                Ok(state) => {
                    // Read-your-writes at node 0: the newest acked element
                    // of the key is there.
                    if !state.is_some_and(|s| s.contains(&last_elem[&key])) {
                        out.stale_reads += 1;
                    }
                    true
                }
                Err(_) => false,
            }
        };
        if !ok {
            out.errors += 1;
            client = None;
        }
        t.end(root);
    }
    t.take()
}

/// Poll nodes 1 and 2 until every marker is seen at both.
fn poll_loop(
    peer1: &Node,
    peer2: &Node,
    markers: mpsc::Receiver<Marker>,
    mut t: Tracer,
    out: &mut PollOut,
) -> Vec<Span> {
    // (marker, seen at node 1, seen at node 2)
    let mut pending: Vec<(Marker, Option<Instant>, Option<Instant>)> = Vec::new();
    let mut gen_done: Option<Instant> = None;
    let mut sweep = 0u64;
    loop {
        loop {
            match markers.try_recv() {
                Ok(m) => pending.push((m, None, None)),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    gen_done.get_or_insert_with(Instant::now);
                    break;
                }
            }
        }
        if pending.is_empty() {
            if gen_done.is_some() {
                break;
            }
            std::thread::sleep(POLL_GAP);
            continue;
        }
        if gen_done.is_some_and(|d| d.elapsed() > VISIBLE_TIMEOUT) {
            out.unseen += pending.len() as u64;
            break;
        }
        t.set_id(sweep);
        sweep += 1;
        let root = t.begin("bench.poll");
        for (m, seen1, seen2) in pending.iter_mut() {
            for (node, seen) in [(peer1, seen1), (peer2, seen2)] {
                if seen.is_some() {
                    continue;
                }
                let state = t.span("net.node.get", || node.get(m.key));
                if state.is_some_and(|s| s.contains(&m.elem)) {
                    *seen = Some(Instant::now());
                }
            }
        }
        t.end(root);
        pending.retain(|(m, s1, s2)| match (s1, s2) {
            (Some(a), Some(b)) => {
                out.visible_ms.push(ms((*a).max(*b) - m.acked));
                false
            }
            _ => true,
        });
        std::thread::sleep(POLL_GAP);
    }
    t.take()
}

impl crate::Bench for Fixture {
    type Input = Input;

    fn input(seed: u64) -> Result<Input, String> {
        Ok(Input {
            zipf: Zipf::new(KEYS as usize, 1.0),
            seed,
        })
    }

    fn build(_: &Input) -> Result<Self, String> {
        Self::setup().map_err(|e| e.to_string())
    }

    /// Offer [`REQUESTS`] requests at [`RATE`] per second. An update's
    /// write latency runs from its due time to its reply; it is visible
    /// once both other nodes return its element.
    fn measure(&mut self, input: &Input, trace: bool, out: &mut Samples) {
        self.settle();
        let origin = Instant::now();
        let before = self.totals();
        let addr = self.cluster.addr(0);
        let rng = StdRng::seed_from_u64(input.seed);
        let (tx, rx) = mpsc::channel();
        let (peer1, peer2) = (self.cluster.node(1), self.cluster.node(2));
        let (next_elem, last_elem) = (&mut self.next_elem, &mut self.last_elem);
        let (mut gen, mut poll) = (GenOut::default(), PollOut::default());
        let (gen_spans, poll_spans) = std::thread::scope(|s| {
            let poll = &mut poll;
            let poller =
                s.spawn(move || poll_loop(peer1, peer2, rx, Tracer::new(trace, origin), poll));
            let gen_spans = generate(
                addr,
                &input.zipf,
                rng,
                REQUESTS,
                next_elem,
                last_elem,
                tx,
                Tracer::new(trace, origin),
                &mut gen,
            );
            (gen_spans, poller.join().expect("poller thread panicked"))
        });
        // Count the trial's own trailing flush too.
        self.settle();
        let mut deltas = BTreeMap::new();
        add_deltas(&mut deltas, &before, &self.totals());
        // Each node's sync step scans its whole keyspace.
        out.count("store.scan.objects", deltas["store.sync.steps"] * KEYS);
        out.bytes += deltas["engine.sync.bytes"];
        for (name, n) in deltas {
            out.count(name, n);
        }
        out.write_us.extend(gen.update_us);
        out.visible_ms.extend(poll.visible_ms);
        out.updates += gen.updates;
        out.attempted += gen.requests;
        out.failed += gen.errors;
        out.count("gen.requests", gen.requests);
        out.count("gen.late", gen.late);
        let (stale, unseen) = (gen.stale_reads, poll.unseen);
        out.check(stale == 0, || {
            format!("{stale} gets at node 0 missed an acked element")
        });
        out.check(unseen == 0, || {
            format!("{unseen} marked updates never seen at both peers")
        });
        out.spans.push(gen_spans);
        out.spans.push(poll_spans);
    }

    /// The cluster converges after the run and no node saw a bad frame.
    fn check(&mut self, out: &mut Samples) {
        let conv = self.cluster.await_convergence(Duration::from_secs(10));
        out.check(conv.converged, || {
            format!("cluster did not converge after the run: {conv}")
        });
        let bad = self.totals()["net.frames.bad"];
        out.check(bad == 0, || format!("{bad} bad frames"));
    }
}
