//! The per-node routing table: `b` k-buckets indexed by XOR distance,
//! packed into one arena per table.
//!
//! # Layout
//!
//! Every delivered message reads or refreshes one routing table, so the
//! layout is chosen by bytes touched per message, not by convenience:
//!
//! ```text
//! start        [u16; b+1]   bucket i = entries start[i]..start[i+1]
//! fingerprints [u32; len]   low 32 id bits         ┐ hot: membership scans,
//! contacts     [Contact]    24 B (id, addr)        ┘ closest-contact reads
//! liveness     [Liveness]   8 B (last_seen, failures) cold: refresh, failure,
//!                                                     probe scans only
//! ```
//!
//! The three entry arrays are parallel and hold the buckets back to back
//! in ascending bucket order, each bucket least-recently-seen first — so
//! "every contact in a bucket below `t`" is one contiguous slice and
//! iterating the table is a walk over one array. Membership is a scan of
//! the bucket's fingerprints (80 bytes at `k = 20`) confirmed by the full
//! id; a refresh slides the bucket's tail down one slot and rewrites the
//! most-recently-seen end; insert and evict shift the arena's tail and
//! bump the offsets, which is cheap because both are rare next to reads.
//! There is no per-bucket allocation and no per-bucket header: an empty
//! bucket costs two bytes.
//!
//! An entry costs 36 bytes. The arrays grow by `k` entries at a time,
//! not by doubling, and shrink back to their length when evictions leave
//! more than `k` unused, so no table carries more than `k` entries of
//! slack.

use crate::bucket::{entries, BucketEntry, InsertOutcome, KBucket, Liveness};
use crate::config::{KademliaConfig, MAX_STALENESS_LIMIT};
use crate::contact::Contact;
use crate::id::NodeId;
use dessim::time::SimTime;
use rand::Rng;

/// A Kademlia routing table.
///
/// Bucket `i` stores contacts at XOR distance `[2^i, 2^(i+1))` from the
/// owner (paper, Section 4.1). The table never stores the owner itself.
///
/// # Example
///
/// ```
/// use dessim::time::SimTime;
/// use kademlia::config::KademliaConfig;
/// use kademlia::contact::{Contact, NodeAddr};
/// use kademlia::id::NodeId;
/// use kademlia::routing::RoutingTable;
///
/// let config = KademliaConfig::builder().bits(16).k(2).build()?;
/// let mut table = RoutingTable::new(NodeId::from_u64(0, 16), &config);
/// table.offer(Contact::new(NodeId::from_u64(5, 16), NodeAddr(1)), SimTime::ZERO);
/// table.offer(Contact::new(NodeId::from_u64(9, 16), NodeAddr(2)), SimTime::ZERO);
/// let closest = table.closest(&NodeId::from_u64(4, 16), 1);
/// assert_eq!(closest[0].addr, NodeAddr(1));
/// # Ok::<(), kademlia::config::ConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RoutingTable {
    own_id: NodeId,
    k: usize,
    staleness_limit: u32,
    /// Occupancy bitmap: bit `i` set iff bucket `i` is non-empty. Lets the
    /// closest-contact scan step straight between occupied buckets instead
    /// of walking up to `b` empty ones per query (converged lookups query
    /// nodes close to the target, whose target-side buckets are deep and
    /// overwhelmingly empty).
    occupied: [u64; 3],
    /// Prefix offsets into the entry arrays (`b + 1` of them): bucket `i`
    /// is `start[i]..start[i + 1]`. `u16` suffices because
    /// [`KademliaConfig`] bounds `b · k` by `u16::MAX`.
    start: Box<[u16]>,
    /// Low 32 bits of each stored id, parallel to `contacts`.
    fingerprints: Vec<u32>,
    /// Every stored contact: buckets ascending, LRS first within each.
    contacts: Vec<Contact>,
    /// Liveness bookkeeping, parallel to `contacts`.
    liveness: Vec<Liveness>,
}

impl RoutingTable {
    /// Creates an empty table for the node `own_id`.
    ///
    /// # Panics
    ///
    /// Panics if `own_id` does not fit into the configured bit-length, if
    /// `bits · k` exceeds `u16::MAX`, or if the staleness limit exceeds
    /// [`MAX_STALENESS_LIMIT`] (both of which
    /// [`crate::config::KademliaConfigBuilder::build`] rejects).
    pub fn new(own_id: NodeId, config: &KademliaConfig) -> Self {
        assert!(own_id.fits(config.bits), "own id exceeds configured bits");
        assert!(
            config.bits as usize * config.k <= u16::MAX as usize,
            "bits * k exceeds the routing table's u16 offsets"
        );
        assert!(
            config.staleness_limit <= MAX_STALENESS_LIMIT,
            "staleness limit exceeds the routing table's one-byte failure count"
        );
        RoutingTable {
            own_id,
            k: config.k,
            staleness_limit: config.staleness_limit,
            occupied: [0; 3],
            start: vec![0; config.bits as usize + 1].into_boxed_slice(),
            fingerprints: Vec::new(),
            contacts: Vec::new(),
            liveness: Vec::new(),
        }
    }

    /// Bucket `i`'s index range in the entry arrays.
    fn range(&self, i: usize) -> (usize, usize) {
        (self.start[i] as usize, self.start[i + 1] as usize)
    }

    /// Arena position of `id` within `lo..hi` (its bucket's range): a
    /// fingerprint scan, confirmed by the full id on a hit.
    fn position(&self, (lo, hi): (usize, usize), id: &NodeId) -> Option<usize> {
        let fingerprint = id.fingerprint();
        self.fingerprints[lo..hi]
            .iter()
            .zip(&self.contacts[lo..hi])
            .position(|(&f, c)| f == fingerprint && c.id == *id)
            .map(|p| lo + p)
    }

    /// Moves the entry at `pos` to the most-recently-seen end of its
    /// bucket (which ends at `hi`) with its liveness reset; returns the
    /// entry's new position.
    fn refresh(&mut self, pos: usize, hi: usize, now: SimTime) -> usize {
        let last = hi - 1;
        let (fingerprint, contact) = (self.fingerprints[pos], self.contacts[pos]);
        self.fingerprints.copy_within(pos + 1..hi, pos);
        self.contacts.copy_within(pos + 1..hi, pos);
        self.liveness.copy_within(pos + 1..hi, pos);
        self.fingerprints[last] = fingerprint;
        self.contacts[last] = contact;
        self.liveness[last] = Liveness::seen(now);
        last
    }

    /// Deletes the entry at `pos` of bucket `i`, shifting the arena's tail;
    /// returns the arrays' memory once more than `k` slots stand unused.
    fn evict(&mut self, i: usize, pos: usize) {
        self.fingerprints.remove(pos);
        self.contacts.remove(pos);
        self.liveness.remove(pos);
        if self.contacts.capacity() - self.contacts.len() > self.k {
            self.fingerprints.shrink_to_fit();
            self.contacts.shrink_to_fit();
            self.liveness.shrink_to_fit();
        }
        for s in &mut self.start[i + 1..] {
            *s -= 1;
        }
        if self.start[i] == self.start[i + 1] {
            self.occupied[i >> 6] &= !(1u64 << (i & 63));
        }
    }

    /// The smallest occupied bucket index `>= from`, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let mut w = from >> 6;
        if w >= self.occupied.len() {
            return None;
        }
        let mut bits = self.occupied[w] & (!0u64 << (from & 63));
        loop {
            if bits != 0 {
                return Some((w << 6) + bits.trailing_zeros() as usize);
            }
            w += 1;
            if w >= self.occupied.len() {
                return None;
            }
            bits = self.occupied[w];
        }
    }

    /// The owner's identifier.
    pub fn own_id(&self) -> NodeId {
        self.own_id
    }

    /// Unused slots of the fullest-reserved entry array: at most `k`.
    #[cfg(test)]
    fn slack(&self) -> usize {
        (self.fingerprints.capacity() - self.fingerprints.len())
            .max(self.contacts.capacity() - self.contacts.len())
            .max(self.liveness.capacity() - self.liveness.len())
    }

    /// Number of buckets (`b`).
    pub fn bucket_count(&self) -> usize {
        self.start.len() - 1
    }

    /// The bucket index `id` falls into, or `None` for the owner's own id.
    pub fn bucket_index(&self, id: &NodeId) -> Option<usize> {
        self.own_id.bucket_index_of(id)
    }

    /// The lowest-indexed non-empty bucket — the deepest one the table
    /// has populated — or `None` for an empty table.
    pub fn lowest_occupied(&self) -> Option<usize> {
        self.next_occupied(0)
    }

    /// Offers a contact observed through *successful* communication.
    ///
    /// Present → moved to the most-recently-seen end of its bucket with
    /// failures reset. Absent and space available → appended. Absent and
    /// the bucket full → dropped ([`InsertOutcome::Full`]).
    ///
    /// A node never stores itself: offering the owner's own id is rejected
    /// and reported as [`InsertOutcome::Full`].
    pub fn offer(&mut self, contact: Contact, now: SimTime) -> InsertOutcome {
        let Some(i) = self.bucket_index(&contact.id) else {
            return InsertOutcome::Full;
        };
        let (lo, hi) = self.range(i);
        match self.position((lo, hi), &contact.id) {
            Some(pos) => {
                let last = self.refresh(pos, hi, now);
                self.contacts[last] = contact;
                InsertOutcome::Refreshed
            }
            None if hi - lo < self.k => {
                if self.contacts.len() == self.contacts.capacity() {
                    // `k` more slots, not a doubling: a full table carries
                    // at most `k` unused entries.
                    self.fingerprints.reserve_exact(self.k);
                    self.contacts.reserve_exact(self.k);
                    self.liveness.reserve_exact(self.k);
                }
                self.fingerprints.insert(hi, contact.id.fingerprint());
                self.contacts.insert(hi, contact);
                self.liveness.insert(hi, Liveness::seen(now));
                for s in &mut self.start[i + 1..] {
                    *s += 1;
                }
                self.occupied[i >> 6] |= 1u64 << (i & 63);
                InsertOutcome::Inserted
            }
            None => InsertOutcome::Full,
        }
    }

    /// Records a successful round trip with `id` (if stored): the entry
    /// moves to the most-recently-seen end with failures reset.
    pub fn record_success(&mut self, id: &NodeId, now: SimTime) {
        if let Some(i) = self.bucket_index(id) {
            let (lo, hi) = self.range(i);
            if let Some(pos) = self.position((lo, hi), id) {
                self.refresh(pos, hi, now);
            }
        }
    }

    /// Records a failed communication with `id`; once the consecutive
    /// failure count reaches the staleness limit the contact is evicted,
    /// and `true` is returned.
    pub fn record_failure(&mut self, id: &NodeId) -> bool {
        let Some(i) = self.bucket_index(id) else {
            return false;
        };
        let Some(pos) = self.position(self.range(i), id) else {
            return false;
        };
        let evict = self.liveness[pos].fail() >= self.staleness_limit;
        if evict {
            self.evict(i, pos);
        }
        evict
    }

    /// Removes `id` outright (used when a node is told a contact is gone).
    pub fn remove(&mut self, id: &NodeId) -> bool {
        let Some(i) = self.bucket_index(id) else {
            return false;
        };
        match self.position(self.range(i), id) {
            Some(pos) => {
                self.evict(i, pos);
                true
            }
            None => false,
        }
    }

    /// Whether `id` is currently stored.
    pub fn contains(&self, id: &NodeId) -> bool {
        self.bucket_index(id)
            .is_some_and(|i| self.position(self.range(i), id).is_some())
    }

    /// The `count` stored contacts closest to `target` by XOR distance,
    /// closest first. This is the answer to a FIND_NODE request.
    pub fn closest(&self, target: &NodeId, count: usize) -> Vec<Contact> {
        let mut all = Vec::new();
        self.closest_into(target, count, &mut all);
        all
    }

    /// [`RoutingTable::closest`] into a caller-provided buffer, clearing it
    /// first — the allocation-free variant the simulator's event loop uses
    /// with pooled scratch vectors. `out` never grows past `count`.
    ///
    /// Exploits the bucket structure instead of scanning the whole table:
    /// with `t` the bucket `target` falls into, every contact in bucket `t`
    /// is at distance `< 2^t` from the target, every contact in a bucket
    /// below `t` is at distance in `[2^t, 2^(t+1))`, and every contact in a
    /// bucket `j > t` is at distance in `[2^j, 2^(j+1))`. Those bands are
    /// disjoint and ordered, so visiting bucket `t`, then all buckets below
    /// `t` together (one contiguous arena slice), then buckets above `t`
    /// ascending — ranking within each band — yields the globally sorted
    /// prefix and lets the scan stop as soon as `count` contacts are in
    /// hand. In a converged overlay the first band usually settles it: one
    /// bucket touched instead of the whole table.
    pub fn closest_into(&self, target: &NodeId, count: usize, out: &mut Vec<Contact>) {
        out.clear();
        if count == 0 {
            return;
        }
        let mut keys = [0u64; STAGE];
        let mut next = match self.bucket_index(target) {
            Some(t) => {
                let (lo, hi) = self.range(t);
                push_closest(out, &self.contacts[lo..hi], target, t, count, &mut keys);
                if out.len() < count {
                    push_closest(out, &self.contacts[..lo], target, t, count, &mut keys);
                }
                self.next_occupied(t + 1)
            }
            // Target is the owner itself: bucket order *is* band order.
            None => self.next_occupied(0),
        };
        while let Some(j) = next.filter(|_| out.len() < count) {
            let (lo, hi) = self.range(j);
            push_closest(out, &self.contacts[lo..hi], target, j, count, &mut keys);
            next = self.next_occupied(j + 1);
        }
    }

    /// Iterates all stored contacts (bucket order, LRS first within each).
    pub fn contacts(&self) -> impl Iterator<Item = &Contact> {
        self.contacts.iter()
    }

    /// Iterates all stored entries — contact plus liveness — in the same
    /// order as [`RoutingTable::contacts`].
    pub fn entries(&self) -> impl Iterator<Item = BucketEntry> + '_ {
        entries(&self.contacts, &self.liveness)
    }

    /// Total number of stored contacts.
    pub fn contact_count(&self) -> usize {
        self.contacts.len()
    }

    /// A view of bucket `i` (for defense policies and diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `i >= bucket_count()`.
    pub fn bucket(&self, i: usize) -> KBucket<'_> {
        let (lo, hi) = self.range(i);
        KBucket::new(&self.contacts[lo..hi], &self.liveness[lo..hi], self.k)
    }

    /// Draws a random target id inside bucket `i`'s distance range — the
    /// refresh procedure's lookup target.
    pub fn random_id_in_bucket<R: Rng + ?Sized>(&self, rng: &mut R, i: usize) -> NodeId {
        self.own_id
            .random_in_bucket(rng, i, self.bucket_count() as u16)
    }
}

/// Sort keys [`RoutingTable::closest_into`] stages on the stack per call —
/// more than a table holds at the paper's `k = 20`, `b = 160` (about 200
/// contacts at 10k nodes). Longer bands take [`push_closest_exact`].
const STAGE: usize = 256;

/// Appends to `out` the `count - out.len()` contacts of `band` closest to
/// `target`, closest first. Every contact of the band must agree with
/// every other on all bits of its distance to `target` at or above `below`
/// (true of each band `closest_into` visits).
///
/// `sort_by_key` on contacts would re-derive a 20-byte distance on every
/// comparison and move 24-byte elements, so each contact is staged once as
/// one `u64` — the 48 distance bits just below `below` over the contact's
/// 16-bit band index — and only those are sorted; the winners are then
/// gathered by index. Distances to a fixed target are pairwise distinct
/// (XOR is injective), so the order is total and an unstable sort is
/// deterministic; contacts that differ only *below* the 48-bit window tie
/// on the key, and a tie among the winners (crafted ids, or tiny id
/// spaces) falls back to [`push_closest_exact`].
fn push_closest(
    out: &mut Vec<Contact>,
    band: &[Contact],
    target: &NodeId,
    below: usize,
    count: usize,
    keys: &mut [u64; STAGE],
) {
    let need = count - out.len();
    if band.len() > STAGE {
        return push_closest_exact(out, band, target, need);
    }
    let keys = &mut keys[..band.len()];
    for (i, (slot, c)) in keys.iter_mut().zip(band).enumerate() {
        *slot = c.id.distance(target).sort_key(below) << 16 | i as u64;
    }
    keys.sort_unstable();
    // A tie among the winners, or between the last winner and the best
    // loser, left that order to the band index.
    let decided = &keys[..keys.len().min(need.saturating_add(1))];
    if decided.windows(2).any(|w| w[0] >> 16 == w[1] >> 16) {
        return push_closest_exact(out, band, target, need);
    }
    let winners = &keys[..keys.len().min(need)];
    out.extend(winners.iter().map(|&key| band[(key & 0xffff) as usize]));
}

/// [`push_closest`] by full-distance comparison: exact for any ids and any
/// band length. An insertion sort into `out`'s tail that keeps only the
/// best `need` (at least one), so `out` stays within `count` here too.
fn push_closest_exact(out: &mut Vec<Contact>, band: &[Contact], target: &NodeId, need: usize) {
    let start = out.len();
    for c in band {
        let d = c.id.distance(target);
        let at = start + out[start..].partition_point(|w| w.id.distance(target) < d);
        if at == start + need {
            continue;
        }
        if out.len() == start + need {
            out.pop();
        }
        out.insert(at, *c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::reference;
    use crate::contact::NodeAddr;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn config(bits: u16, k: usize) -> KademliaConfig {
        KademliaConfig::builder()
            .bits(bits)
            .k(k)
            .build()
            .expect("valid")
    }

    fn contact(v: u64) -> Contact {
        Contact::new(NodeId::from_u64(v, 16), NodeAddr(v as u32))
    }

    #[test]
    fn contacts_land_in_correct_buckets() {
        let mut t = RoutingTable::new(NodeId::from_u64(0, 16), &config(16, 20));
        t.offer(contact(1), SimTime::ZERO); // distance 1 -> bucket 0
        t.offer(contact(2), SimTime::ZERO); // distance 2 -> bucket 1
        t.offer(contact(3), SimTime::ZERO); // distance 3 -> bucket 1
        t.offer(contact(0x8000), SimTime::ZERO); // bucket 15
        assert_eq!(t.bucket(0).len(), 1);
        assert_eq!(t.bucket(1).len(), 2);
        assert_eq!(t.bucket(15).len(), 1);
        assert_eq!(t.contact_count(), 4);
    }

    #[test]
    fn own_id_is_never_stored() {
        let mut t = RoutingTable::new(NodeId::from_u64(7, 16), &config(16, 20));
        t.offer(
            Contact::new(NodeId::from_u64(7, 16), NodeAddr(9)),
            SimTime::ZERO,
        );
        assert_eq!(t.contact_count(), 0);
        assert!(!t.contains(&NodeId::from_u64(7, 16)));
    }

    #[test]
    fn closest_orders_by_xor_distance() {
        let mut t = RoutingTable::new(NodeId::from_u64(0, 16), &config(16, 20));
        for v in [1u64, 4, 5, 200, 1023] {
            t.offer(contact(v), SimTime::ZERO);
        }
        let target = NodeId::from_u64(5, 16);
        let closest = t.closest(&target, 3);
        let ids: Vec<u64> = closest
            .iter()
            .map(|c| c.id.distance(&NodeId::ZERO).to_u64())
            .collect();
        // Distances to 5: 5->0, 4->1, 1->4, 200->205, 1023->1018.
        assert_eq!(ids, vec![5, 4, 1]);
    }

    #[test]
    fn closest_truncates_to_available() {
        let mut t = RoutingTable::new(NodeId::from_u64(0, 16), &config(16, 20));
        t.offer(contact(3), SimTime::ZERO);
        assert_eq!(t.closest(&NodeId::from_u64(1, 16), 10).len(), 1);
    }

    #[test]
    fn failure_eviction_respects_staleness_limit() {
        let cfg = KademliaConfig::builder()
            .bits(16)
            .staleness_limit(2)
            .build()
            .expect("valid");
        let mut t = RoutingTable::new(NodeId::from_u64(0, 16), &cfg);
        t.offer(contact(5), SimTime::ZERO);
        let id = NodeId::from_u64(5, 16);
        assert!(!t.record_failure(&id));
        assert!(t.contains(&id));
        assert!(t.record_failure(&id));
        assert!(!t.contains(&id));
    }

    #[test]
    fn bucket_full_drops_new_contacts() {
        let mut t = RoutingTable::new(NodeId::from_u64(0, 16), &config(16, 1));
        // Both land in bucket 1 (distances 2 and 3).
        assert_eq!(t.offer(contact(2), SimTime::ZERO), InsertOutcome::Inserted);
        assert_eq!(t.offer(contact(3), SimTime::ZERO), InsertOutcome::Full);
        assert!(t.contains(&NodeId::from_u64(2, 16)));
        assert!(!t.contains(&NodeId::from_u64(3, 16)));
    }

    #[test]
    fn random_id_in_bucket_has_right_distance() {
        let t = RoutingTable::new(NodeId::from_u64(0xab, 16), &config(16, 4));
        let mut rng = SmallRng::seed_from_u64(5);
        for i in [0usize, 3, 9, 15] {
            let id = t.random_id_in_bucket(&mut rng, i);
            assert_eq!(t.bucket_index(&id), Some(i));
        }
    }

    #[test]
    fn banded_closest_matches_full_table_sort() {
        // The band-ordered bucket traversal must return exactly what a
        // naive sort of the entire table returns — for targets in every
        // band position, including the owner itself.
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..50 {
            let own = NodeId::random(&mut rng, 16);
            let mut t = RoutingTable::new(own, &config(16, 4));
            for _ in 0..120 {
                let id = NodeId::random(&mut rng, 16);
                t.offer(Contact::new(id, NodeAddr(0)), SimTime::ZERO);
            }
            for target in [own, NodeId::random(&mut rng, 16), NodeId::ZERO] {
                for count in [1usize, 3, 7, 20, 1000] {
                    let mut naive: Vec<Contact> = t.contacts().copied().collect();
                    naive.sort_by_key(|c| c.id.distance(&target));
                    naive.truncate(count);
                    let got = t.closest(&target, count);
                    assert_eq!(
                        got.iter().map(|c| c.id).collect::<Vec<_>>(),
                        naive.iter().map(|c| c.id).collect::<Vec<_>>(),
                        "banded traversal diverged (count {count})"
                    );
                }
            }
        }
    }

    #[test]
    fn remove_outright() {
        let mut t = RoutingTable::new(NodeId::from_u64(0, 16), &config(16, 4));
        t.offer(contact(9), SimTime::ZERO);
        assert!(t.remove(&NodeId::from_u64(9, 16)));
        assert!(!t.remove(&NodeId::from_u64(9, 16)));
        assert_eq!(t.contact_count(), 0);
    }

    #[test]
    fn hot_entry_layout_is_pinned() {
        use std::mem::size_of;
        assert_eq!(size_of::<Contact>(), 24);
        assert_eq!(size_of::<Liveness>(), 8);
        assert_eq!(size_of::<crate::lookup::Candidate>(), 32);
        // What a membership scan plus a closest-contact read touch per
        // stored contact; liveness rides in its own array.
        assert_eq!(size_of::<u32>() + size_of::<Contact>(), 28);
        assert_eq!(
            size_of::<u32>() + size_of::<Contact>() + size_of::<Liveness>(),
            36
        );
    }

    #[test]
    fn liveness_round_trips_at_the_edges_of_its_fields() {
        let cfg = KademliaConfig::builder()
            .bits(16)
            .k(2)
            .staleness_limit(MAX_STALENESS_LIMIT)
            .build()
            .expect("valid");
        let mut t = RoutingTable::new(NodeId::from_u64(0, 16), &cfg);
        let late = SimTime::from_millis((1 << 56) - 1);
        t.offer(contact(5), late);
        let id = NodeId::from_u64(5, 16);
        for failures in 1..MAX_STALENESS_LIMIT {
            assert!(!t.record_failure(&id));
            let entry = t.entries().next().expect("still stored");
            assert_eq!((entry.failures, entry.last_seen), (failures, late));
        }
        // The 255th consecutive failure reaches the limit and evicts.
        assert!(t.record_failure(&id));
        assert_eq!(t.contact_count(), 0);
    }

    #[test]
    #[should_panic(expected = "56-bit field")]
    fn a_last_seen_beyond_the_packed_field_is_rejected() {
        let mut t = RoutingTable::new(NodeId::from_u64(0, 16), &config(16, 2));
        t.offer(contact(5), SimTime::from_millis(1 << 56));
    }

    #[test]
    #[should_panic(expected = "one-byte failure count")]
    fn a_staleness_limit_beyond_the_failure_byte_is_rejected() {
        let cfg = KademliaConfig {
            staleness_limit: MAX_STALENESS_LIMIT + 1,
            ..config(16, 2)
        };
        RoutingTable::new(NodeId::from_u64(0, 16), &cfg);
    }

    #[test]
    fn arena_grows_by_k_and_gives_back_evicted_room() {
        let k = 4;
        let mut t = RoutingTable::new(NodeId::from_u64(0, 16), &config(16, k));
        // Ids 0x100.. land in bucket 8 (k of them) and above.
        let ids: Vec<u64> = (0..12).map(|i| 0x100 << (i % 8) | i).collect();
        for &v in &ids {
            t.offer(contact(v), SimTime::ZERO);
            assert!(t.slack() < k, "slack {} after inserting {v:#x}", t.slack());
            assert_eq!(t.contacts.capacity() % k, 0, "grown by k at a time");
        }
        for &v in &ids {
            t.remove(&NodeId::from_u64(v, 16));
            assert!(t.slack() <= k, "slack {} after removing {v:#x}", t.slack());
        }
        assert_eq!(t.contact_count(), 0);
        assert!(t.contacts.capacity() <= k);
    }

    #[test]
    fn lowest_occupied_tracks_inserts_and_evictions() {
        let mut t = RoutingTable::new(NodeId::from_u64(0, 16), &config(16, 4));
        assert_eq!(t.lowest_occupied(), None);
        t.offer(contact(0x8000), SimTime::ZERO);
        assert_eq!(t.lowest_occupied(), Some(15));
        t.offer(contact(5), SimTime::ZERO);
        assert_eq!(t.lowest_occupied(), Some(2));
        assert!(t.remove(&NodeId::from_u64(5, 16)));
        assert_eq!(t.lowest_occupied(), Some(15));
    }

    #[test]
    fn entries_pair_contacts_with_their_liveness() {
        let cfg = KademliaConfig::builder()
            .bits(16)
            .k(4)
            .staleness_limit(3)
            .build()
            .expect("valid");
        let mut t = RoutingTable::new(NodeId::from_u64(0, 16), &cfg);
        t.offer(contact(9), SimTime::from_secs(1));
        t.offer(contact(2), SimTime::from_secs(2));
        t.record_failure(&NodeId::from_u64(9, 16));
        let got: Vec<_> = t.entries().collect();
        // Bucket order: id 2 (bucket 1) before id 9 (bucket 3).
        assert_eq!(
            got,
            vec![
                BucketEntry {
                    contact: contact(2),
                    failures: 0,
                    last_seen: SimTime::from_secs(2)
                },
                BucketEntry {
                    contact: contact(9),
                    failures: 1,
                    last_seen: SimTime::from_secs(1)
                },
            ]
        );
        assert_eq!(
            got,
            t.bucket(1)
                .iter()
                .chain(t.bucket(3).iter())
                .collect::<Vec<_>>()
        );
    }

    /// The table the arena replaced: one owning reference bucket per
    /// index, the closest set by sorting every contact on its full
    /// distance.
    struct ReferenceTable {
        own_id: NodeId,
        buckets: Vec<reference::KBucket>,
        staleness_limit: u32,
    }

    impl ReferenceTable {
        fn new(own_id: NodeId, config: &KademliaConfig) -> Self {
            ReferenceTable {
                own_id,
                buckets: vec![reference::KBucket::new(config.k); config.bits as usize],
                staleness_limit: config.staleness_limit,
            }
        }

        fn bucket_mut(&mut self, id: &NodeId) -> Option<&mut reference::KBucket> {
            let i = self.own_id.bucket_index_of(id)?;
            Some(&mut self.buckets[i])
        }

        fn offer(&mut self, contact: Contact, now: SimTime) -> InsertOutcome {
            self.bucket_mut(&contact.id)
                .map_or(InsertOutcome::Full, |b| b.offer(contact, now))
        }

        fn closest(&self, target: &NodeId, count: usize) -> Vec<Contact> {
            let mut all: Vec<Contact> = self
                .buckets
                .iter()
                .flat_map(|b| b.contacts())
                .copied()
                .collect();
            all.sort_by_key(|c| c.id.distance(target));
            all.truncate(count);
            all
        }
    }

    /// Ids for the differential test (`bits` a multiple of 8, at least
    /// 16). `clustered` draws from three prefixes over a 12-bit suffix:
    /// contacts of one cluster agree with each other — and so do their
    /// distances to any target — on every bit above the suffix, which for
    /// `bits > 60` ties them on the 48-bit sort key and forces the exact
    /// fallback.
    fn draw_id(rng: &mut SmallRng, bits: u16, clustered: bool) -> NodeId {
        if !clustered {
            return NodeId::random(rng, bits);
        }
        let mut bytes = [0u8; crate::id::ID_BYTES];
        // A distinct top byte of the id space per cluster…
        let top = crate::id::ID_BYTES - bits as usize / 8;
        bytes[top] = rng.random_range(1u8..4) << 5;
        // …over a 12-bit suffix (which at 16 bits covers the cluster byte
        // too: every id is then a 12-bit value).
        let suffix = rng.random_range(0u16..1 << 12);
        bytes[crate::id::ID_BYTES - 2..].copy_from_slice(&suffix.to_be_bytes());
        NodeId::from_bytes(bytes, bits)
    }

    proptest! {
        // CI also runs this module with `--release`, for the larger count.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 96 } else { 1024 }))]

        /// The packed arena against the `Vec`-per-bucket table it
        /// replaced, over random operation sequences: every outcome, the
        /// iteration order, every bucket view and every closest set agree.
        #[test]
        fn arena_matches_reference_buckets(
            seed in any::<u64>(),
            bits_pick in 0usize..3,
            k_pick in 0usize..3,
            s in 1u32..4,
            clustered in any::<bool>(),
        ) {
            let bits = [16u16, 80, 160][bits_pick];
            let k = [1usize, 4, 20][k_pick];
            let cfg = KademliaConfig::builder()
                .bits(bits)
                .k(k)
                .staleness_limit(s)
                .build()
                .expect("valid");
            let mut rng = SmallRng::seed_from_u64(seed);
            let own = draw_id(&mut rng, bits, clustered);
            let mut table = RoutingTable::new(own, &cfg);
            let mut model = ReferenceTable::new(own, &cfg);
            // Instants anywhere in the packed 56-bit millisecond range.
            let epoch = rng.random_range(0..(1u64 << 56) - 1_300_000);
            // A bounded id pool so refreshes, failures and removals hit
            // stored contacts; the owner's id is in it.
            let mut pool: Vec<NodeId> = (0..400).map(|_| draw_id(&mut rng, bits, clustered)).collect();
            pool.push(own);
            for step in 0..1200u64 {
                let id = pool[rng.random_range(0..pool.len())];
                let now = SimTime::from_millis(epoch + step * 1000 + rng.random_range(0..1000));
                match rng.random_range(0u8..10) {
                    0..=5 => {
                        let c = Contact::new(id, NodeAddr(rng.random_range(0u32..4)));
                        prop_assert_eq!(table.offer(c, now), model.offer(c, now));
                    }
                    6 => {
                        table.record_success(&id, now);
                        if let Some(b) = model.bucket_mut(&id) {
                            b.record_success(&id, now);
                        }
                    }
                    7 | 8 => {
                        let limit = model.staleness_limit;
                        let evicted = model.bucket_mut(&id).is_some_and(|b| b.record_failure(&id, limit));
                        prop_assert_eq!(table.record_failure(&id), evicted);
                    }
                    _ => {
                        let removed = model.bucket_mut(&id).is_some_and(|b| b.remove(&id));
                        prop_assert_eq!(table.remove(&id), removed);
                    }
                }
                prop_assert_eq!(
                    table.contains(&id),
                    model.bucket_mut(&id).is_some_and(|b| b.contains(&id))
                );
                // The touched bucket's liveness round-trips the packing
                // exactly, and the arena never holds more than `k` spare
                // slots.
                if let Some(i) = own.bucket_index_of(&id) {
                    prop_assert_eq!(
                        table.bucket(i).iter().collect::<Vec<_>>(),
                        model.buckets[i].iter().copied().collect::<Vec<_>>()
                    );
                }
                prop_assert!(table.slack() <= k, "slack {} > k = {}", table.slack(), k);
                if step % 40 != 0 {
                    continue;
                }
                let order: Vec<Contact> = model.buckets.iter().flat_map(|b| b.contacts()).copied().collect();
                prop_assert_eq!(table.contacts().copied().collect::<Vec<_>>(), order);
                prop_assert_eq!(table.contact_count(), model.buckets.iter().map(|b| b.len()).sum::<usize>());
                prop_assert_eq!(
                    table.lowest_occupied(),
                    model.buckets.iter().position(|b| !b.is_empty())
                );
                for (i, b) in model.buckets.iter().enumerate() {
                    let view = table.bucket(i);
                    prop_assert_eq!(view.iter().collect::<Vec<_>>(), b.iter().copied().collect::<Vec<_>>());
                    prop_assert_eq!((view.len(), view.is_empty(), view.is_full()), (b.len(), b.is_empty(), b.is_full()));
                }
                let targets = [own, id, draw_id(&mut rng, bits, clustered), NodeId::random(&mut rng, bits)];
                for target in targets {
                    for count in [1, k, 3 * k, 1000] {
                        prop_assert_eq!(
                            table.closest(&target, count),
                            model.closest(&target, count),
                            "closest({}, {}) diverged", target, count
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn long_and_tied_bands_match_a_full_sort() {
        // A band longer than the stage, and one whose keys all tie, each
        // against a full sort — and neither grows `out` past `count`.
        let mut rng = SmallRng::seed_from_u64(17);
        let target = NodeId::random(&mut rng, 160);
        for (tied, len) in [(false, 3 * STAGE), (true, STAGE / 2), (true, 3 * STAGE)] {
            let band: Vec<Contact> = (0..len as u32)
                .map(|i| {
                    let id = if tied {
                        // Distances differ in the low 16 bits only.
                        let mut bytes = *target.as_bytes();
                        bytes[18..].copy_from_slice(&(i as u16 ^ 0x5a5a).to_be_bytes());
                        NodeId::from_bytes(bytes, 160)
                    } else {
                        NodeId::random(&mut rng, 160)
                    };
                    Contact::new(id, NodeAddr(i))
                })
                .collect();
            let mut sorted = band.clone();
            sorted.sort_by_key(|c| c.id.distance(&target));
            for count in [1, 20, STAGE, 10 * STAGE] {
                let mut out = Vec::with_capacity(count);
                push_closest(&mut out, &band, &target, 160, count, &mut [0; STAGE]);
                assert_eq!(
                    out,
                    sorted[..count.min(len)],
                    "tied {tied}, len {len}, count {count}"
                );
                assert_eq!(out.capacity(), count, "tied {tied}, len {len}");
            }
        }
    }
}
