//! `repair-30k`: partition/heal cycles on a lockstep 3-node
//! `LoopbackCluster` of 30 K keys, timing the Merkle-descent repair.
//!
//! Each cycle partitions node 2, applies [`UPDATES_PER_CYCLE`] seeded
//! updates at node 0, runs one lockstep round (node 1 gets them, node 2
//! does not), heals, and times `LoopbackCluster::repair(2, 0)`. The
//! repaired pair is compared on the updated keys outside the timing.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use crdt_net::{LoopbackCluster, NodeConfig};
use crdt_types::{GSet, GSetOp};
use delta_store::StoreConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{ms, us};
use crate::trace::Tracer;
use crate::{add_deltas, obs_counters, Samples};

pub const NODES: usize = 3;
pub const KEYS: u64 = 30_000;
/// 1% of the keyspace diverges per cycle.
pub const UPDATES_PER_CYCLE: usize = 300;
/// Cycles every trial measures: the same seeded keys on every trial.
pub const CYCLES: usize = 40;
/// Elements added by cycles sit above the preloaded ones.
const ELEM_BASE: u64 = 1 << 40;

type Cluster = LoopbackCluster<u64, GSet<u64>>;

pub struct Fixture {
    cluster: Cluster,
    rng: StdRng,
    next_elem: u64,
    cycle: u64,
}

impl Fixture {
    fn setup(seed: u64) -> std::io::Result<Self> {
        let cluster = Cluster::full_mesh(NODES, NodeConfig::new(StoreConfig::default(), NODES))?;
        // Every node starts from the same 30 K objects; one round flushes
        // the preload's δ-buffers (all of it redundant at the receivers).
        for i in 0..NODES {
            let node = cluster.node(i);
            for k in 0..KEYS {
                node.update(k, &GSetOp::Add(k));
            }
        }
        let mut fx = Fixture {
            cluster,
            rng: StdRng::seed_from_u64(seed),
            next_elem: ELEM_BASE,
            cycle: 0,
        };
        fx.cluster.sync_round();
        // The first repair builds the Merkle trees, which later repairs
        // only update.
        let mut warm = Samples::default();
        fx.cycle(&mut Tracer::new(false, Instant::now()), &mut warm);
        if warm.failed > 0 {
            return Err(std::io::Error::other("warm-up repair left the pair apart"));
        }
        Ok(fx)
    }

    /// One partition/heal cycle: the repair's wall time is how long the
    /// cycle's updates take to reach node 2 once it is reachable again.
    fn cycle(&mut self, t: &mut Tracer, out: &mut Samples) {
        let mut keys = BTreeSet::new();
        while keys.len() < UPDATES_PER_CYCLE {
            keys.insert(self.rng.gen_range(0..KEYS));
        }
        t.set_id(self.cycle);
        self.cycle += 1;
        let cluster = &mut self.cluster;
        let root = t.begin("bench.cycle");
        t.span("net.cluster.partition", || cluster.partition(&[2]));
        for &k in &keys {
            let elem = self.next_elem;
            self.next_elem += 1;
            let w0 = Instant::now();
            t.span("net.node.update", || {
                cluster.node(0).update(k, &GSetOp::Add(elem))
            });
            out.write_us.push(us(w0.elapsed()));
        }
        t.span("net.cluster.sync_round", || cluster.sync_round());
        t.span("net.cluster.heal", || cluster.heal());
        let r0 = Instant::now();
        let stats = t.span("net.cluster.repair", || cluster.repair(2, 0));
        out.visible_ms.push(ms(r0.elapsed()));
        t.end(root);
        out.updates += keys.len() as u64;
        out.attempted += keys.len() as u64;
        out.bytes += stats.payload_bytes + stats.metadata_bytes;
        out.count("repairs", 1);
        let (a, b) = (cluster.node(0), cluster.node(2));
        let apart = keys.iter().filter(|&&k| a.get(k) != b.get(k)).count();
        out.check(apart == 0, || {
            format!("{apart} keys differ between nodes 0 and 2 after repair")
        });
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

impl crate::Bench for Fixture {
    type Input = u64;

    fn input(seed: u64) -> Result<u64, String> {
        Ok(seed)
    }

    fn build(seed: &u64) -> Result<Self, String> {
        Self::setup(*seed).map_err(|e| e.to_string())
    }

    /// Run [`CYCLES`] cycles.
    fn measure(&mut self, _: &u64, trace: bool, out: &mut Samples) {
        let mut t = Tracer::new(trace, Instant::now());
        let before = self.totals();
        for _ in 0..CYCLES {
            self.cycle(&mut t, out);
        }
        let mut deltas = BTreeMap::new();
        add_deltas(&mut deltas, &before, &self.totals());
        // Each node's sync step scans its whole keyspace.
        out.count("store.scan.objects", deltas["store.sync.steps"] * KEYS);
        for (name, n) in deltas {
            out.count(name, n);
        }
        out.spans.push(t.take());
    }

    /// Heal and let lockstep rounds run: all three nodes converge.
    fn check(&mut self, out: &mut Samples) {
        self.cluster.heal();
        let conv = self.cluster.run_until_converged(4);
        out.check(conv.converged, || {
            format!("cluster did not converge after the run: {conv}")
        });
    }
}
