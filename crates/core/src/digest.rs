//! State-driven and digest-driven pairwise synchronization (paper, §VI;
//! introduced in \[30\], built on the same join decompositions).
//!
//! These repair a *pair* of replicas after a partition, avoiding
//! bidirectional full-state transfer:
//!
//! * **state-driven** (2 messages): `A` sends its full state `x_A`; `B`
//!   computes `Δ(x_B, x_A)` — exactly the updates `A` missed — and sends
//!   it back. One full state crosses the wire instead of two.
//! * **digest-driven** (3 messages): `A` sends a *digest* of `x_A`
//!   (smaller than the state); `B` uses it to compute a delta for `A`, and
//!   piggybacks its own digest so `A` can compute a delta for `B`. No full
//!   state crosses the wire at all.
//!
//! The digest here is the set of 64-bit hashes of the state's
//! join-irreducibles. This is **sound** (every irreducible the peer lacks
//! is sent, so both sides converge to `x_A ⊔ x_B`) and exact for set-like
//! decompositions; for chain-valued entries (e.g. GCounter cells) a hash
//! cannot express "I hold a *smaller* entry", so a peer may send an
//! irreducible the other side already dominates. That over-send is safe —
//! joins are idempotent — and bounded by one irreducible per stale entry.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use crdt_lattice::{join_all, CodecError, Decompose, SizeModel, StateSize, WireEncode};

/// A state digest: hashes of the join-irreducibles of `⇓x`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Digest {
    hashes: BTreeSet<u64>,
}

impl Digest {
    /// Digest of a decomposable state.
    pub fn of<C: Decompose>(state: &C) -> Self {
        let mut hashes = BTreeSet::new();
        state.for_each_irreducible(&mut |y| {
            hashes.insert(hash_irreducible(&y));
        });
        Digest { hashes }
    }

    /// Does the digest cover this irreducible?
    pub fn covers<C: Decompose>(&self, irreducible: &C) -> bool {
        self.hashes.contains(&hash_irreducible(irreducible))
    }

    /// Number of summarized irreducibles.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Is the digest empty?
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Wire size: 8 bytes per hash.
    pub fn size_bytes(&self) -> u64 {
        8 * self.hashes.len() as u64
    }
}

/// Digests cross real transports (`crdt-net`'s repair handshake runs the
/// 3-message protocol of §VI over sockets), so they encode like any
/// other wire value: the sorted hash set, varint-framed.
impl WireEncode for Digest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.hashes.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Digest {
            hashes: BTreeSet::decode(input)?,
        })
    }
}

/// Hash one join-irreducible.
///
/// Uses the deterministic `DefaultHasher` over the `Debug` rendering:
/// irreducibles are small (single entries/elements), `Debug` for the
/// lattice types in this workspace is a faithful canonical form (ordered
/// containers), and determinism across replicas is required for digests
/// to be comparable.
fn hash_irreducible<C: Decompose>(y: &C) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{y:?}").hash(&mut h);
    h.finish()
}

/// The irreducibles of `state` not covered by `digest`, joined.
pub fn delta_for_digest<C: Decompose>(state: &C, digest: &Digest) -> C {
    let mut missing = Vec::new();
    state.for_each_irreducible(&mut |y| {
        if !digest.covers(&y) {
            missing.push(y);
        }
    });
    join_all(missing)
}

/// Transmission statistics of a pairwise synchronization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairSyncStats {
    /// Messages exchanged (2 for state-driven, 3 for digest-driven).
    pub messages: u32,
    /// Lattice elements shipped (full states count their elements).
    pub payload_elements: u64,
    /// Payload bytes shipped.
    pub payload_bytes: u64,
    /// Digest/metadata bytes shipped.
    pub metadata_bytes: u64,
}

impl core::ops::AddAssign for PairSyncStats {
    fn add_assign(&mut self, other: Self) {
        self.messages += other.messages;
        self.payload_elements += other.payload_elements;
        self.payload_bytes += other.payload_bytes;
        self.metadata_bytes += other.metadata_bytes;
    }
}

/// State-driven synchronization of two replicas (2 messages).
///
/// After the call both states equal `a ⊔ b`.
pub fn state_driven_sync<C: Decompose + StateSize>(
    a: &mut C,
    b: &mut C,
    model: &SizeModel,
) -> PairSyncStats {
    let mut stats = PairSyncStats::default();

    // Message 1: A → B, full state.
    let x_a = a.clone();
    stats.messages += 1;
    stats.payload_elements += x_a.count_elements();
    stats.payload_bytes += x_a.size_bytes(model);

    // B computes what A missed *before* merging, then merges.
    let delta_for_a = b.delta(&x_a);
    b.join_assign(x_a);

    // Message 2: B → A, the delta.
    stats.messages += 1;
    stats.payload_elements += delta_for_a.count_elements();
    stats.payload_bytes += delta_for_a.size_bytes(model);
    a.join_assign(delta_for_a);

    stats
}

/// Digest-driven synchronization of two replicas (3 messages).
///
/// After the call both states equal `a ⊔ b`.
pub fn digest_driven_sync<C: Decompose + StateSize>(
    a: &mut C,
    b: &mut C,
    model: &SizeModel,
) -> PairSyncStats {
    let mut stats = PairSyncStats::default();

    // Message 1: A → B, digest(x_A).
    let digest_a = Digest::of(a);
    stats.messages += 1;
    stats.metadata_bytes += digest_a.size_bytes();

    // Message 2: B → A, delta for A + digest(x_B before merge).
    let delta_for_a = delta_for_digest(b, &digest_a);
    let digest_b = Digest::of(b);
    stats.messages += 1;
    stats.payload_elements += delta_for_a.count_elements();
    stats.payload_bytes += delta_for_a.size_bytes(model);
    stats.metadata_bytes += digest_b.size_bytes();
    a.join_assign(delta_for_a);

    // Message 3: A → B, delta for B (computed against B's digest).
    let delta_for_b = delta_for_digest(a, &digest_b);
    stats.messages += 1;
    stats.payload_elements += delta_for_b.count_elements();
    stats.payload_bytes += delta_for_b.size_bytes(model);
    b.join_assign(delta_for_b);

    stats
}

/// Digest-driven pairwise repair **by reference**: compute the δ-groups
/// each replica is missing from the other, without mutating (or
/// requiring ownership of) either input state.
///
/// Every repair-capable driver in the workspace used to open-code the
/// same four-clone dance — clone both states out of `self`, clone both
/// again into scratch for [`digest_driven_sync`], then diff the merged
/// scratch against the originals. This helper is that dance, once:
/// callers pass `&xa, &xb` and get back
/// `(delta_for_a, delta_for_b, stats)` where each delta is exactly what
/// the scratch-based formulation injected (`(x ⊔ received).delta(&x)` —
/// bottom when the side was already current), and `stats` is
/// byte-identical to [`digest_driven_sync`]'s three-message accounting.
/// Only the two intermediate merges are materialized internally; the
/// call site clones nothing.
pub fn digest_repair_deltas<C: Decompose + StateSize>(
    xa: &C,
    xb: &C,
    model: &SizeModel,
) -> (C, C, PairSyncStats) {
    let mut stats = PairSyncStats::default();

    // Message 1: A → B, digest(x_A).
    let digest_a = Digest::of(xa);
    stats.messages += 1;
    stats.metadata_bytes += digest_a.size_bytes();

    // Message 2: B → A, delta for A + digest(x_B before merge).
    let received_a = delta_for_digest(xb, &digest_a);
    let digest_b = Digest::of(xb);
    stats.messages += 1;
    stats.payload_elements += received_a.count_elements();
    stats.payload_bytes += received_a.size_bytes(model);
    stats.metadata_bytes += digest_b.size_bytes();
    let merged_a = xa.clone().join(received_a);

    // Message 3: A → B, delta for B (computed against B's digest, from
    // A's merged state).
    let received_b = delta_for_digest(&merged_a, &digest_b);
    stats.messages += 1;
    stats.payload_elements += received_b.count_elements();
    stats.payload_bytes += received_b.size_bytes(model);
    let merged_b = xb.clone().join(received_b);

    (merged_a.delta(xa), merged_b.delta(xb), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdt_lattice::{Bottom, Lattice, MapLattice, Max, ReplicaId, SetLattice};

    type S = SetLattice<u32>;
    type GC = MapLattice<ReplicaId, Max<u64>>;

    #[test]
    fn state_driven_converges_in_two_messages() {
        let model = SizeModel::compact();
        let mut a = S::from_iter([1, 2, 3]);
        let mut b = S::from_iter([3, 4]);
        let expect = a.clone().join(b.clone());
        let stats = state_driven_sync(&mut a, &mut b, &model);
        assert_eq!(a, expect);
        assert_eq!(b, expect);
        assert_eq!(stats.messages, 2);
        // 3 elements over, 2 elements ({4} would be 1... Δ(b,a) = {4}) back.
        assert_eq!(stats.payload_elements, 3 + 1);
    }

    #[test]
    fn digest_driven_converges_in_three_messages() {
        let model = SizeModel::compact();
        let mut a = S::from_iter([1, 2, 3]);
        let mut b = S::from_iter([3, 4]);
        let expect = a.clone().join(b.clone());
        let stats = digest_driven_sync(&mut a, &mut b, &model);
        assert_eq!(a, expect);
        assert_eq!(b, expect);
        assert_eq!(stats.messages, 3);
        // Payload: {4} to A, {1,2} to B — no full state crossed the wire.
        assert_eq!(stats.payload_elements, 1 + 2);
        // Metadata: two digests (3 + 2 hashes).
        assert_eq!(stats.metadata_bytes, 8 * 5);
    }

    #[test]
    fn digest_driven_ships_less_payload_when_mostly_shared() {
        let model = SizeModel::compact();
        let shared: Vec<u32> = (0..100).collect();
        let mut a = S::from_iter(shared.iter().copied());
        let mut b = S::from_iter(shared.iter().copied().chain([1000]));
        let mut a2 = a.clone();
        let mut b2 = b.clone();
        let sd = state_driven_sync(&mut a, &mut b, &model);
        let dd = digest_driven_sync(&mut a2, &mut b2, &model);
        assert_eq!(a, a2);
        assert!(
            dd.payload_bytes < sd.payload_bytes,
            "digest-driven payload {} must beat state-driven {}",
            dd.payload_bytes,
            sd.payload_bytes
        );
    }

    #[test]
    fn gcounter_digest_sync_converges_with_bounded_oversend() {
        let model = SizeModel::compact();
        let a0 = GC::from_iter([(ReplicaId(0), Max::new(5)), (ReplicaId(1), Max::new(2))]);
        let b0 = GC::from_iter([(ReplicaId(0), Max::new(3)), (ReplicaId(2), Max::new(7))]);
        let expect = a0.clone().join(b0.clone());
        let mut a = a0;
        let mut b = b0;
        let stats = digest_driven_sync(&mut a, &mut b, &model);
        assert_eq!(a, expect);
        assert_eq!(b, expect);
        // Over-send is bounded: at most one irreducible per entry per side.
        assert!(stats.payload_elements <= 4);
    }

    #[test]
    fn digest_covers_its_own_parts() {
        let s = S::from_iter([1, 2, 3]);
        let d = Digest::of(&s);
        assert_eq!(d.len(), 3);
        s.for_each_irreducible(&mut |y| assert!(d.covers(&y)));
        assert!(!d.covers(&S::from_iter([9])));
        assert!(Digest::of(&S::bottom()).is_empty());
    }

    /// The by-reference helper must be indistinguishable from the
    /// scratch-based formulation every runner used to open-code: same
    /// three-message stats, same injected deltas, inputs untouched.
    #[test]
    fn repair_deltas_match_the_scratch_formulation() {
        let model = SizeModel::compact();
        let cases: Vec<(S, S)> = vec![
            (S::from_iter([1, 2, 3]), S::from_iter([3, 4])),
            (S::from_iter([1]), S::from_iter([1])),
            (S::bottom(), S::from_iter([7, 8])),
            (S::bottom(), S::bottom()),
        ];
        for (xa, xb) in cases {
            let (mut ca, mut cb) = (xa.clone(), xb.clone());
            let scratch_stats = digest_driven_sync(&mut ca, &mut cb, &model);
            let (da, db, stats) = digest_repair_deltas(&xa, &xb, &model);
            assert_eq!(stats, scratch_stats);
            assert_eq!(da, ca.delta(&xa));
            assert_eq!(db, cb.delta(&xb));
            assert_eq!(xa.clone().join(da), ca, "A side converges identically");
            assert_eq!(xb.clone().join(db), cb, "B side converges identically");
        }
        // Chain-valued entries (the over-send corner): still identical.
        let ga = GC::from_iter([(ReplicaId(0), Max::new(5)), (ReplicaId(1), Max::new(2))]);
        let gb = GC::from_iter([(ReplicaId(0), Max::new(3)), (ReplicaId(2), Max::new(7))]);
        let (mut ca, mut cb) = (ga.clone(), gb.clone());
        let scratch_stats = digest_driven_sync(&mut ca, &mut cb, &model);
        let (da, db, stats) = digest_repair_deltas(&ga, &gb, &model);
        assert_eq!(stats, scratch_stats);
        assert_eq!(da, ca.delta(&ga));
        assert_eq!(db, cb.delta(&gb));
    }

    #[test]
    fn sync_of_equal_states_ships_nothing() {
        let model = SizeModel::compact();
        let mut a = S::from_iter([1, 2]);
        let mut b = a.clone();
        let stats = digest_driven_sync(&mut a, &mut b, &model);
        assert_eq!(stats.payload_elements, 0);
        let stats = state_driven_sync(&mut a, &mut b, &model);
        // State-driven always ships the initiator's full state.
        assert_eq!(stats.payload_elements, 2);
    }

    /// Two ⊥ replicas still cross the full 3-message handshake — the
    /// digests are what tell them there is nothing to ship — but zero
    /// payload and only empty-digest metadata.
    #[test]
    fn repair_of_two_bottom_states_ships_nothing() {
        let model = SizeModel::compact();
        let (da, db, stats) = digest_repair_deltas(&S::bottom(), &S::bottom(), &model);
        assert!(da.is_bottom() && db.is_bottom());
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.payload_elements, 0);
        assert_eq!(stats.payload_bytes, 0);
        assert_eq!(
            stats.metadata_bytes,
            2 * Digest::of(&S::bottom()).size_bytes(),
            "both empty digests still crossed"
        );
    }

    /// One side ⊥: a pure one-way transfer — the populated side learns
    /// nothing and the empty side receives exactly the full state.
    #[test]
    fn repair_against_an_empty_side_is_a_one_way_transfer() {
        let model = SizeModel::compact();
        let a = S::from_iter([1, 2, 3]);
        let (da, db, stats) = digest_repair_deltas(&a, &S::bottom(), &model);
        assert!(da.is_bottom(), "the populated side must learn nothing");
        assert_eq!(S::bottom().join(db), a);
        assert_eq!(stats.payload_elements, 3);
    }

    /// The minimal divergence: one irreducible on each side. Exactly
    /// two payload elements cross (one per direction), none redundant.
    #[test]
    fn repair_of_single_irreducible_divergence_is_exact() {
        let model = SizeModel::compact();
        let a = S::from_iter([1, 2]);
        let b = S::from_iter([1, 3]);
        let (da, db, stats) = digest_repair_deltas(&a, &b, &model);
        assert_eq!(da, S::from_iter([3]));
        assert_eq!(db, S::from_iter([2]));
        assert_eq!(stats.payload_elements, 2);
    }
}
