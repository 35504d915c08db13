//! Pairwise keyspace repair — the one implementation every in-process
//! driver shares ([`crate::Cluster`] and `crdt-sim`'s sharded runner).
//!
//! [`repair_pair`] stitches two replicas back together after ordinary
//! synchronization lost traffic (a healed partition, a restart, a join).
//! The driver picks the [`RepairMode`]:
//!
//! * [`RepairMode::Sweep`] — the §VI digest handshake per object over
//!   every key either side holds. Only the join-irreducibles a side is
//!   missing cross the wire, and they enter the ordinary receive path
//!   ([`StoreReplica::inject_delta`]), so the novelty keeps propagating;
//! * [`RepairMode::Merkle`] — the same handshake over only the keys a
//!   keyspace Merkle descent found diverged, once either keyspace holds
//!   [`MERKLE_REPAIR_THRESHOLD`] objects. Below that it is a sweep:
//!   per-object digests are already cheap there;
//! * [`RepairMode::Bootstrap`] — a snapshot exchange in both directions,
//!   protocol recovery metadata included.
//!
//! The returned [`PairRepair`] carries the session's traffic and, when a
//! descent ran, its [`DescentStats`] ledger, so each driver charges its
//! own `repair.*` cells.

use core::fmt;
use std::collections::BTreeSet;
use std::hash::Hash;

use crdt_lattice::{Sizeable, WireEncode};
use crdt_sync::digest::{digest_repair_deltas, PairSyncStats};
use crdt_sync::{diff_keys, DescentStats, MerkleTree, MERKLE_REPAIR_THRESHOLD};
use crdt_types::Crdt;

use crate::replica::StoreReplica;

/// A Merkle descent between two flushed keyspace trees: the diverged keys
/// plus the session's ledger (see [`crdt_sync::diff_keys`]).
type Descent<K> = fn(&MerkleTree<K>, &MerkleTree<K>) -> (BTreeSet<K>, DescentStats);

/// Which keys a [`repair_pair`] session exchanges, and how.
pub enum RepairMode<K> {
    /// Digest handshake over every key either side holds.
    Sweep,
    /// Descent first at scale, then the digest handshake over the
    /// diverged keys only. Build it with [`RepairMode::merkle`].
    Merkle(Descent<K>),
    /// Per-object snapshot exchange, first `b` into `a`, then `a` into
    /// `b`.
    Bootstrap,
}

impl<K: Ord + Clone + Hash + WireEncode> RepairMode<K> {
    /// [`RepairMode::Merkle`] over [`crdt_sync::diff_keys`].
    pub fn merkle() -> Self {
        RepairMode::Merkle(diff_keys::<K>)
    }
}

impl<K> fmt::Debug for RepairMode<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RepairMode::Sweep => "Sweep",
            RepairMode::Merkle(_) => "Merkle",
            RepairMode::Bootstrap => "Bootstrap",
        })
    }
}

/// What one [`repair_pair`] session moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairRepair {
    /// All of the session's traffic. A descent's frames count as
    /// messages and its encoded frame bytes as metadata.
    pub stats: PairSyncStats,
    /// The Merkle descent's own ledger, when one ran.
    pub descent: Option<DescentStats>,
}

/// Repair replicas `a` and `b` of `replicas` pairwise (see the module
/// docs). With [`RepairMode::Merkle`] the lower index opens the descent.
///
/// # Panics
///
/// If `a == b`, or if a digest mode runs over a protocol that does not
/// exchange bare δ-groups ([`crdt_sync::ProtocolKind::accepts_raw_delta`]):
/// the anti-entropy and op-based kinds carry their own recovery metadata
/// and neither need nor accept digest injection.
pub fn repair_pair<K, C>(
    replicas: &mut [StoreReplica<K, C>],
    a: usize,
    b: usize,
    mode: RepairMode<K>,
) -> PairRepair
where
    K: Ord + Clone + Sizeable + Hash,
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + 'static,
{
    assert_ne!(a, b, "repair needs two distinct replicas");
    let (lo, hi) = (a.min(b), a.max(b));
    let (left, right) = replicas.split_at_mut(hi);
    let (low, high) = (&mut left[lo], &mut right[0]);
    let cfg = low.config();
    assert!(
        matches!(mode, RepairMode::Bootstrap) || cfg.protocol.accepts_raw_delta(),
        "digest repair applies to delta-family/state protocols; {} manages its own recovery",
        cfg.protocol
    );
    let mut out = PairRepair::default();
    let keys: BTreeSet<K> = match mode {
        RepairMode::Bootstrap => {
            let (x, y) = if a < b { (low, high) } else { (high, low) };
            out.stats += x.bootstrap_from(y);
            out.stats += y.bootstrap_from(x);
            return out;
        }
        RepairMode::Merkle(descend) if low.len().max(high.len()) >= MERKLE_REPAIR_THRESHOLD => {
            let (keys, descent) = descend(low.merkle(), high.merkle());
            out.stats.messages += descent.frames as u32;
            out.stats.metadata_bytes += descent.total_bytes();
            out.descent = Some(descent);
            keys
        }
        RepairMode::Sweep | RepairMode::Merkle(_) => {
            low.keys().chain(high.keys()).cloned().collect()
        }
    };
    let (x, y) = if a < b { (low, high) } else { (high, low) };
    let (id_a, id_b) = (x.id(), y.id());
    for key in keys {
        // Run the 3-message protocol by reference for the stats and each
        // side's missing delta, then feed both through the ordinary
        // receive path (RR extraction + buffering for propagation).
        let (delta_for_a, delta_for_b, stats) = {
            let bottom = C::bottom();
            let xa = x.get(key.clone()).unwrap_or(&bottom);
            let xb = y.get(key.clone()).unwrap_or(&bottom);
            digest_repair_deltas(xa, xb, &cfg.model)
        };
        out.stats += stats;
        if !delta_for_a.is_bottom() {
            x.inject_delta(key.clone(), id_b, delta_for_a);
        }
        if !delta_for_b.is_bottom() {
            y.inject_delta(key, id_a, delta_for_b);
        }
    }
    out
}
