//! The iterative lookup state machine.
//!
//! A lookup keeps a *shortlist* of candidate contacts ordered by XOR
//! distance to the target, queries up to `α` of them concurrently, merges
//! the contacts each response returns, and terminates when either `k` nodes
//! have been successfully contacted or no untried candidates remain
//! (paper, Section 4.1: "this process ends when a number of k nodes have
//! been successfully contacted, or no more progress is made in getting
//! closer to the target").
//!
//! The state machine is pure — it never performs I/O. The network driver
//! ([`crate::network::SimNetwork`]) feeds it responses/failures and sends
//! whatever [`LookupState::next_queries`] asks for, which keeps the
//! protocol logic unit-testable without a simulator.

use crate::config::KademliaConfig;
use crate::contact::{Contact, NodeAddr};
use crate::id::{Distance, NodeId};
use crate::network::TraceBuffer;
use dessim::time::SimTime;

/// Unique id of a lookup within one simulation.
pub type LookupId = u64;

/// Why the lookup is running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupPurpose {
    /// Locate a node / data object (the paper's "lookup procedure").
    Locate,
    /// Locate the `k` closest nodes and then store a data object on them
    /// (the paper's "dissemination procedure").
    Disseminate,
    /// Retrieve a stored data object: like `Locate`, but queried nodes
    /// that hold the key answer with the value, which ends the lookup
    /// early (FIND_VALUE semantics).
    Retrieve,
    /// Maintenance: a periodic bucket-refresh lookup. Protocol-identical
    /// to `Locate`; kept distinct so service telemetry can separate
    /// maintenance traffic from data traffic.
    Refresh,
    /// Maintenance: the self-lookup a node performs when joining.
    Bootstrap,
    /// Defense: a self-healing repair lookup launched after a neighbor
    /// was evicted, targeting the lost contact's id region so surviving
    /// neighbors' closest sets refill the hole. Protocol-identical to
    /// `Locate`; kept distinct so defense overhead is attributable.
    Repair,
}

/// Splits lookup seeds into `d` disjoint first-hop sets for a
/// disjoint-path lookup ([`crate::network::SimNetwork::start_find_value_disjoint`]).
///
/// Seeds are dealt round-robin in distance order, so every path starts
/// with a similar distance profile (path 0 gets the closest seed, path 1
/// the second-closest, …) instead of one privileged path hoarding all the
/// close contacts. Empty paths are dropped: with fewer than `d` seeds the
/// lookup degrades gracefully to as many paths as it can seed.
pub fn partition_seeds(seeds: Vec<Contact>, d: usize) -> Vec<Vec<Contact>> {
    let d = d.max(1);
    let mut paths: Vec<Vec<Contact>> = vec![Vec::new(); d.min(seeds.len().max(1))];
    for (i, seed) in seeds.into_iter().enumerate() {
        let slot = i % paths.len();
        paths[slot].push(seed);
    }
    paths.retain(|p| !p.is_empty());
    paths
}

/// State of one shortlist candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CandidateState {
    Untried,
    InFlight,
    Responded,
    Failed,
}

/// One shortlist entry, 32 bytes — two to a cache line (a stored
/// [`Contact`] beside a padded [`Distance`] would be 56). Every response
/// merges into and every query scans this array, so its density sets the
/// lookup's share of per-message cost.
///
/// The candidate's id is not stored: for a fixed target the XOR metric is
/// injective, so the cached distance *is* the identity — two candidates
/// collide on it iff they are the same node — and the id is
/// `target ^ distance` whenever a [`Contact`] must be handed out. The
/// distance's three words are flattened into the struct so `addr`, `hop`
/// and `state` fill what would otherwise be its tail padding.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Candidate {
    /// XOR distance to the lookup target ([`Distance::words`]), cached at
    /// insertion so shortlist searches never recompute it.
    dist_hi: u64,
    dist_mid: u64,
    dist_lo: u32,
    addr: NodeAddr,
    /// Hop depth: seeds from the local routing table are hop 1; a contact
    /// learned from the response of a hop-`h` node is hop `h + 1`. The hop
    /// depth of the closest responder is the lookup's hop count — the
    /// quantity the Roos-style analytic hop distribution predicts.
    hop: u32,
    state: CandidateState,
}

impl Candidate {
    fn new(contact: &Contact, target: &NodeId, hop: u32) -> Self {
        let (dist_hi, dist_mid, dist_lo) = contact.id.distance(target).words();
        Candidate {
            dist_hi,
            dist_mid,
            dist_lo,
            addr: contact.addr,
            hop,
            state: CandidateState::Untried,
        }
    }

    fn dist(&self) -> Distance {
        Distance::from_words(self.dist_hi, self.dist_mid, self.dist_lo)
    }

    /// The candidate as a contact, its id rebuilt from the target.
    fn contact(&self, target: &NodeId) -> Contact {
        Contact::new(target.at_distance(&self.dist()), self.addr)
    }
}

/// Reusable per-lookup shortlist arena.
///
/// The simulator pools these: a finished [`LookupState`] returns its arena
/// via [`LookupState::into_scratch`] and the next lookup starts from it via
/// [`LookupState::with_scratch`], which *resets* (clears) the buffer but
/// keeps its heap capacity — the event loop never reallocates shortlists in
/// steady state.
#[derive(Clone, Debug, Default)]
pub struct LookupScratch {
    shortlist: Vec<Candidate>,
}

impl LookupScratch {
    /// Shortlist entries a warm arena has room for: the worst-case
    /// shortlist (`capacity + k` — a merge can transiently overshoot
    /// capacity by one response's worth of contacts before pruning).
    fn slots(config: &KademliaConfig) -> usize {
        config.shortlist_capacity() + config.k
    }

    /// Heap bytes a warm arena holds (what a pool of them costs apiece).
    pub(crate) fn footprint_bytes(config: &KademliaConfig) -> usize {
        Self::slots(config) * std::mem::size_of::<Candidate>()
    }
}

/// One in-progress lookup with the driver's bookkeeping for it: everything
/// [`crate::network::SimNetwork`] keeps per lookup lives here, so it is
/// created, found and dropped with the lookup itself.
#[derive(Clone, Debug)]
pub(crate) struct LookupEntry {
    pub(crate) state: LookupState,
    /// When the lookup started (its telemetry record's `started_ms`).
    pub(crate) started: SimTime,
    /// The disjoint-path group this lookup is a path of, if any.
    pub(crate) group: Option<u64>,
    /// The lookup's spans, only while the installed sink wants traces.
    pub(crate) trace: Option<Box<TraceBuffer>>,
}

/// The set of a node's in-progress lookups, keyed by [`LookupId`].
///
/// Backed by an insertion-ordered `Vec` rather than a `HashMap`: a node has
/// only a handful of concurrent lookups, so linear id scans beat hashing,
/// and — the property the simulator's determinism contract relies on —
/// iteration order is *insertion order*, never hash order. Removal shifts
/// (`Vec::remove`) precisely to preserve that order.
#[derive(Clone, Debug, Default)]
pub struct LookupTable {
    entries: Vec<LookupEntry>,
}

impl LookupTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        LookupTable::default()
    }

    /// Number of lookups in progress.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no lookup is in progress.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The lookup with id `id`, if present.
    pub fn get(&self, id: LookupId) -> Option<&LookupState> {
        self.iter().find(|s| s.id == id)
    }

    /// Mutable access to the entry of the lookup with id `id`.
    pub(crate) fn get_mut(&mut self, id: LookupId) -> Option<&mut LookupEntry> {
        self.entries.iter_mut().find(|e| e.state.id == id)
    }

    /// Inserts an entry (ids are unique per simulation; inserting a
    /// duplicate id is a logic error).
    pub(crate) fn insert(&mut self, entry: LookupEntry) {
        debug_assert!(self.get(entry.state.id).is_none(), "duplicate lookup id");
        self.entries.push(entry);
    }

    /// Removes and returns the entry of the lookup with id `id`.
    pub(crate) fn remove(&mut self, id: LookupId) -> Option<LookupEntry> {
        let pos = self.entries.iter().position(|e| e.state.id == id)?;
        Some(self.entries.remove(pos))
    }

    /// Iterates lookups in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &LookupState> {
        self.entries.iter().map(|e| &e.state)
    }

    /// Iterates entries in insertion order, mutably.
    pub(crate) fn entries_mut(&mut self) -> impl Iterator<Item = &mut LookupEntry> {
        self.entries.iter_mut()
    }

    /// Drains all entries in insertion order, keeping the table's capacity.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = LookupEntry> + '_ {
        self.entries.drain(..)
    }
}

/// The iterative α-parallel lookup state machine.
#[derive(Clone, Debug)]
pub struct LookupState {
    id: LookupId,
    target: NodeId,
    purpose: LookupPurpose,
    own_id: NodeId,
    /// Candidates sorted ascending by distance to the target.
    shortlist: Vec<Candidate>,
    capacity: usize,
    k: usize,
    alpha: usize,
    in_flight: usize,
    responded: usize,
    /// FIND_NODE / FIND_VALUE queries handed out so far.
    messages_sent: u32,
    /// Whether a `Retrieve` lookup has hit a node holding the value.
    value_found: bool,
    /// Watermark: every shortlist entry below this index is known to be
    /// non-`Untried`. States never revert to `Untried`, so the only thing
    /// that can lower the bound is an insertion — [`merge_chunk`] clamps
    /// it to the first insert position. Lets [`next_queries_into`] and
    /// [`is_finished`] skip the settled prefix instead of rescanning the
    /// whole shortlist on every response.
    ///
    /// [`merge_chunk`]: LookupState::merge_chunk
    /// [`next_queries_into`]: LookupState::next_queries_into
    /// [`is_finished`]: LookupState::is_finished
    untried_floor: usize,
}

impl LookupState {
    /// Creates a lookup seeded from the node's routing table.
    pub fn new(
        id: LookupId,
        target: NodeId,
        purpose: LookupPurpose,
        own_id: NodeId,
        seeds: &[Contact],
        config: &KademliaConfig,
    ) -> Self {
        LookupState::with_scratch(
            id,
            target,
            purpose,
            own_id,
            seeds,
            config,
            LookupScratch::default(),
        )
    }

    /// [`LookupState::new`] from a pooled shortlist arena: the arena is
    /// reset (cleared) and reserved to the worst-case shortlist footprint,
    /// so a warm arena never grows again.
    pub fn with_scratch(
        id: LookupId,
        target: NodeId,
        purpose: LookupPurpose,
        own_id: NodeId,
        seeds: &[Contact],
        config: &KademliaConfig,
        scratch: LookupScratch,
    ) -> Self {
        let mut shortlist = scratch.shortlist;
        shortlist.clear();
        let capacity = config.shortlist_capacity();
        shortlist.reserve(LookupScratch::slots(config));
        let mut state = LookupState {
            id,
            target,
            purpose,
            own_id,
            shortlist,
            capacity,
            k: config.k,
            alpha: config.alpha,
            in_flight: 0,
            responded: 0,
            messages_sent: 0,
            value_found: false,
            untried_floor: 0,
        };
        state.merge_candidates(seeds, 1);
        state
    }

    /// Reclaims the shortlist arena for pooling (see [`LookupScratch`]).
    pub fn into_scratch(mut self) -> LookupScratch {
        self.shortlist.clear();
        LookupScratch {
            shortlist: self.shortlist,
        }
    }

    /// The lookup's id.
    pub fn id(&self) -> LookupId {
        self.id
    }

    /// The lookup target.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The lookup purpose.
    pub fn purpose(&self) -> LookupPurpose {
        self.purpose
    }

    /// Queries currently awaiting a response.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Nodes successfully contacted so far.
    pub fn responded(&self) -> usize {
        self.responded
    }

    /// Queries handed out over the lookup's lifetime (each becomes one
    /// FIND_NODE / FIND_VALUE RPC).
    pub fn messages_sent(&self) -> u32 {
        self.messages_sent
    }

    /// Whether a `Retrieve` lookup found its value.
    pub fn value_found(&self) -> bool {
        self.value_found
    }

    /// Marks the value as found (a queried node answered with it). Ends
    /// the lookup: [`LookupState::is_finished`] becomes true and no
    /// further queries are handed out.
    pub fn mark_value_found(&mut self) {
        self.value_found = true;
    }

    /// Hop depth of the closest responding node — the lookup's hop count
    /// (see [`LookupState::new`]'s seeding: routing-table seeds are hop 1).
    /// 0 when nothing responded.
    pub fn result_hops(&self) -> u32 {
        self.shortlist
            .iter()
            .find(|c| c.state == CandidateState::Responded)
            .map_or(0, |c| c.hop)
    }

    /// Marks up to `α − in_flight` closest untried candidates as in-flight
    /// and returns them for the driver to query.
    pub fn next_queries(&mut self) -> Vec<Contact> {
        let mut queries = Vec::new();
        self.next_queries_into(&mut queries);
        queries
    }

    /// [`LookupState::next_queries`] into a caller-provided buffer
    /// (cleared first) — the allocation-free variant the simulator's pooled
    /// query buffer uses.
    pub fn next_queries_into(&mut self, out: &mut Vec<Contact>) {
        out.clear();
        if self.responded >= self.k || self.value_found {
            return;
        }
        // Everything below the watermark is known non-`Untried`; entries
        // scanned here are either already settled or get marked in-flight,
        // so the watermark advances to wherever the scan stops.
        let mut idx = self.untried_floor;
        while idx < self.shortlist.len() {
            if self.in_flight >= self.alpha {
                break;
            }
            let cand = &mut self.shortlist[idx];
            if cand.state == CandidateState::Untried {
                cand.state = CandidateState::InFlight;
                self.in_flight += 1;
                out.push(cand.contact(&self.target));
            }
            idx += 1;
        }
        self.untried_floor = idx;
        self.messages_sent += out.len() as u32;
    }

    /// Feeds a successful response from `from`, merging the returned
    /// contacts into the shortlist.
    pub fn on_response(&mut self, from: &NodeId, returned: &[Contact]) {
        let mut from_hop = 1;
        if let Some(pos) = self.candidate_position(from) {
            if self.shortlist[pos].state == CandidateState::InFlight {
                self.in_flight -= 1;
            }
            if self.shortlist[pos].state != CandidateState::Responded {
                self.shortlist[pos].state = CandidateState::Responded;
                self.responded += 1;
            }
            from_hop = self.shortlist[pos].hop;
        }
        self.merge_candidates(returned, from_hop.saturating_add(1));
    }

    /// Feeds a failure (timeout or lost round trip) for `from`.
    pub fn on_failure(&mut self, from: &NodeId) {
        if let Some(pos) = self.candidate_position(from) {
            if self.shortlist[pos].state == CandidateState::InFlight {
                self.in_flight -= 1;
            }
            if self.shortlist[pos].state != CandidateState::Responded {
                self.shortlist[pos].state = CandidateState::Failed;
            }
        }
    }

    /// Whether the lookup is done: `k` successful contacts, the value
    /// found (for `Retrieve`), or candidates exhausted (nothing untried,
    /// nothing in flight).
    pub fn is_finished(&self) -> bool {
        if self.responded >= self.k || self.value_found {
            return true;
        }
        self.in_flight == 0
            && !self.shortlist[self.untried_floor..]
                .iter()
                .any(|c| c.state == CandidateState::Untried)
    }

    /// The closest successfully-contacted nodes — the lookup result, and
    /// the STORE targets for a dissemination.
    pub fn closest_responded(&self, count: usize) -> Vec<Contact> {
        let mut out = Vec::new();
        self.closest_responded_into(count, &mut out);
        out
    }

    /// [`LookupState::closest_responded`] into a caller-provided buffer
    /// (cleared first).
    pub fn closest_responded_into(&self, count: usize, out: &mut Vec<Contact>) {
        out.clear();
        out.extend(
            self.shortlist
                .iter()
                .filter(|c| c.state == CandidateState::Responded)
                .take(count)
                .map(|c| c.contact(&self.target)),
        );
    }

    fn candidate_position(&self, id: &NodeId) -> Option<usize> {
        // The shortlist is sorted by cached distance, and XOR distance to
        // the fixed target is injective — binary search by distance is an
        // exact id lookup.
        let dist = id.distance(&self.target);
        let pos = self.shortlist.partition_point(|c| c.dist() < dist);
        self.shortlist
            .get(pos)
            .is_some_and(|c| c.dist() == dist)
            .then_some(pos)
    }

    /// Inserts new candidates at hop depth `hop`, keeping the list sorted
    /// by distance and pruning the farthest *untried* entries beyond
    /// capacity.
    ///
    /// Candidates are staged on the stack with their distance computed
    /// once, sorted, and folded into the sorted shortlist with a single
    /// backward merge pass — every element moves at most once, instead of
    /// one `Vec::insert` shift per candidate. Because XOR distance to a
    /// fixed target is injective, a distance collision *is* a duplicate
    /// node, so the staging pass also answers the duplicate checks.
    ///
    /// Equivalence of the fast reject: a contact farther than everything
    /// in a full-to-capacity shortlist would end up with rank beyond
    /// `capacity` with every closer entry still present at prune time, so
    /// the prune's back-scan is guaranteed to reach and remove it —
    /// skipping it up front is behaviorally identical.
    fn merge_candidates(&mut self, contacts: &[Contact], hop: u32) {
        const BATCH: usize = 24;
        for chunk in contacts.chunks(BATCH) {
            self.merge_chunk(chunk, hop);
        }
        // Prune: drop farthest untried candidates beyond capacity.
        if self.shortlist.len() > self.capacity {
            let mut excess = self.shortlist.len() - self.capacity;
            let mut i = self.shortlist.len();
            while excess > 0 && i > 0 {
                i -= 1;
                if self.shortlist[i].state == CandidateState::Untried {
                    self.shortlist.remove(i);
                    excess -= 1;
                }
            }
        }
    }

    fn merge_chunk(&mut self, chunk: &[Contact], hop: u32) {
        let Some(first) = chunk.first() else { return };
        // Stage every candidate with its distance computed once, dropping
        // the owner itself.
        let mut staged = [Candidate::new(first, &self.target, hop); 24];
        let mut m = 0;
        for contact in chunk {
            if contact.id == self.own_id {
                continue;
            }
            staged[m] = Candidate::new(contact, &self.target, hop);
            m += 1;
        }
        if m == 0 {
            return;
        }
        // Simulator responses arrive distance-sorted (they are
        // `closest_into` output), which the whole filter below exploits;
        // arbitrary callers may not be, so normalize: sort and drop
        // in-batch duplicates (equal distance = same node). The sorted
        // path cannot contain in-batch duplicates — they would violate
        // strict ascent.
        if !(1..m).all(|i| staged[i - 1].dist() < staged[i].dist()) {
            staged[..m].sort_unstable_by_key(Candidate::dist);
            let mut unique = 1;
            for i in 1..m {
                if staged[i].dist() != staged[unique - 1].dist() {
                    staged[unique] = staged[i];
                    unique += 1;
                }
            }
            m = unique;
        }
        // Filter against the current shortlist with one forward scan:
        // both sides are now sorted, so the duplicate probe is a
        // sequential two-pointer walk instead of a binary search per
        // candidate — and when the list is at capacity, one comparison
        // against the current worst entry rejects the whole remaining
        // tail (the fast reject above, applied once instead of per
        // contact).
        let at_capacity = self.shortlist.len() >= self.capacity;
        let worst = self.shortlist.last().map(Candidate::dist);
        let mut keep = 0;
        let mut p = 0;
        for i in 0..m {
            let d = staged[i].dist();
            if at_capacity && worst.is_some_and(|w| d > w) {
                break;
            }
            while p < self.shortlist.len() && self.shortlist[p].dist() < d {
                p += 1;
            }
            if self.shortlist.get(p).is_some_and(|c| c.dist() == d) {
                continue;
            }
            if keep == 0 {
                // First fresh `Untried` entry lands at index `p`; the
                // watermark must not skip it.
                self.untried_floor = self.untried_floor.min(p);
            }
            staged[keep] = staged[i];
            keep += 1;
        }
        if keep == 0 {
            return;
        }
        let staged = &staged[..keep];
        // One backward merge pass: grow the list, then fill from the back.
        let old_len = self.shortlist.len();
        self.shortlist.resize(old_len + keep, staged[0]);
        let mut i = old_len; // unmerged shortlist entries [..i]
        let mut j = keep; // unmerged staged entries [..j]
        for w in (0..old_len + keep).rev() {
            if j == 0 {
                break; // remaining shortlist prefix already in place
            }
            if i > 0 && self.shortlist[i - 1].dist() > staged[j - 1].dist() {
                self.shortlist[w] = self.shortlist[i - 1];
                i -= 1;
            } else {
                self.shortlist[w] = staged[j - 1];
                j -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::NodeAddr;

    fn contact(v: u64) -> Contact {
        Contact::new(NodeId::from_u64(v, 32), NodeAddr(v as u32))
    }

    fn config(k: usize, alpha: usize) -> KademliaConfig {
        KademliaConfig::builder()
            .bits(32)
            .k(k)
            .alpha(alpha)
            .build()
            .expect("valid")
    }

    fn lookup(target: u64, seeds: &[u64], k: usize, alpha: usize) -> LookupState {
        LookupState::new(
            1,
            NodeId::from_u64(target, 32),
            LookupPurpose::Locate,
            NodeId::from_u64(u32::MAX as u64, 32),
            &seeds.iter().map(|&v| contact(v)).collect::<Vec<_>>(),
            &config(k, alpha),
        )
    }

    #[test]
    fn candidates_are_half_a_cache_line() {
        assert!(std::mem::size_of::<Candidate>() <= 32);
    }

    /// Candidates store a distance, not an id: every contact the lookup
    /// hands back out must be byte-equal to the one that went in.
    #[test]
    fn handed_out_contacts_equal_their_seeds() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        for bits in [32u16, 160] {
            let mut rng = SmallRng::seed_from_u64(u64::from(bits));
            let cfg = KademliaConfig::builder()
                .bits(bits)
                .k(20)
                .alpha(3)
                .build()
                .expect("valid");
            let target = NodeId::random(&mut rng, bits);
            let seeds: Vec<Contact> = (0..40)
                .map(|i| Contact::new(NodeId::random(&mut rng, bits), NodeAddr(i)))
                .collect();
            let own = NodeId::random(&mut rng, bits);
            let mut s = LookupState::new(1, target, LookupPurpose::Locate, own, &seeds, &cfg);
            let mut queried = Vec::new();
            while !s.is_finished() {
                for c in s.next_queries() {
                    assert!(seeds.contains(&c), "{c} is not a seed ({bits} bits)");
                    queried.push(c);
                    s.on_response(&c.id, &[]);
                }
            }
            let mut closest = seeds.clone();
            closest.sort_by_key(|c| c.id.distance(&target));
            assert_eq!(queried, closest[..queried.len()], "closest first");
            assert_eq!(s.closest_responded(20), closest[..20]);
        }
    }

    #[test]
    fn queries_alpha_closest_first() {
        let mut s = lookup(0, &[1, 2, 50, 100], 20, 2);
        let q = s.next_queries();
        assert_eq!(q.len(), 2);
        assert_eq!(q[0], contact(1));
        assert_eq!(q[1], contact(2));
        assert_eq!(s.in_flight(), 2);
        // No more slots until a response or failure arrives.
        assert!(s.next_queries().is_empty());
    }

    #[test]
    fn response_frees_slot_and_merges_contacts() {
        let mut s = lookup(0, &[1, 2, 50], 20, 2);
        let _ = s.next_queries();
        s.on_response(&NodeId::from_u64(1, 32), &[contact(3), contact(4)]);
        assert_eq!(s.responded(), 1);
        let q = s.next_queries();
        // Closest untried are now 3 (just merged); one slot free.
        assert_eq!(q, vec![contact(3)]);
    }

    #[test]
    fn finishes_after_k_successes() {
        let mut s = lookup(0, &[1, 2, 3], 2, 3);
        let q = s.next_queries();
        assert_eq!(q.len(), 3);
        s.on_response(&NodeId::from_u64(1, 32), &[]);
        assert!(!s.is_finished());
        s.on_response(&NodeId::from_u64(2, 32), &[]);
        assert!(s.is_finished(), "k=2 successes reached");
        assert!(
            s.next_queries().is_empty(),
            "finished lookups stop querying"
        );
    }

    #[test]
    fn finishes_on_exhaustion() {
        let mut s = lookup(0, &[1, 2], 20, 3);
        let _ = s.next_queries();
        s.on_failure(&NodeId::from_u64(1, 32));
        assert!(!s.is_finished(), "one query still in flight");
        s.on_failure(&NodeId::from_u64(2, 32));
        assert!(s.is_finished(), "all candidates failed");
        assert_eq!(s.responded(), 0);
    }

    #[test]
    fn empty_seed_lookup_is_immediately_finished() {
        let s = lookup(0, &[], 20, 3);
        assert!(s.is_finished());
    }

    #[test]
    fn own_id_and_duplicates_excluded() {
        let own = u32::MAX as u64;
        let mut s = lookup(0, &[1, 1, own], 20, 5);
        let q = s.next_queries();
        assert_eq!(q.len(), 1, "duplicate and self filtered");
    }

    #[test]
    fn closest_responded_sorted_by_distance() {
        let mut s = lookup(0, &[8, 1, 4], 20, 3);
        let _ = s.next_queries();
        for v in [8u64, 1, 4] {
            s.on_response(&NodeId::from_u64(v, 32), &[]);
        }
        let top = s.closest_responded(2);
        assert_eq!(top, vec![contact(1), contact(4)]);
    }

    #[test]
    fn failed_candidates_not_in_result() {
        let mut s = lookup(0, &[1, 2], 20, 2);
        let _ = s.next_queries();
        s.on_response(&NodeId::from_u64(2, 32), &[]);
        s.on_failure(&NodeId::from_u64(1, 32));
        assert_eq!(s.closest_responded(5), vec![contact(2)]);
    }

    #[test]
    fn shortlist_capacity_prunes_farthest_untried() {
        let cfg = config(2, 1);
        let mut s = LookupState::new(
            1,
            NodeId::from_u64(0, 32),
            LookupPurpose::Locate,
            NodeId::from_u64(u32::MAX as u64, 32),
            &(1..=10).map(contact).collect::<Vec<_>>(),
            &cfg,
        );
        // Capacity is 3k = 6; merging kept only the closest 6 of the 10.
        assert_eq!(cfg.shortlist_capacity(), 6);
        assert_eq!(s.next_queries().len(), 1);
        let untried_or_inflight = 6;
        let total: usize = s.shortlist.len();
        assert_eq!(total, untried_or_inflight);
    }

    #[test]
    fn late_duplicate_response_not_double_counted() {
        let mut s = lookup(0, &[1, 2], 2, 2);
        let _ = s.next_queries();
        s.on_response(&NodeId::from_u64(1, 32), &[]);
        s.on_response(&NodeId::from_u64(1, 32), &[]);
        assert_eq!(s.responded(), 1);
    }

    #[test]
    fn failure_after_response_keeps_responded_state() {
        let mut s = lookup(0, &[1], 5, 1);
        let _ = s.next_queries();
        s.on_response(&NodeId::from_u64(1, 32), &[]);
        s.on_failure(&NodeId::from_u64(1, 32));
        assert_eq!(s.responded(), 1);
        assert_eq!(s.closest_responded(5).len(), 1);
    }

    #[test]
    fn unknown_sender_ignored() {
        let mut s = lookup(0, &[1], 5, 1);
        let _ = s.next_queries();
        s.on_response(&NodeId::from_u64(77, 32), &[contact(5)]);
        // 77 wasn't a candidate; its contacts still merge.
        assert_eq!(s.responded(), 0);
        assert!(
            s.next_queries().is_empty(),
            "alpha=1 and 1 already in flight"
        );
    }

    #[test]
    fn purpose_and_accessors() {
        let s = lookup(7, &[1], 5, 1);
        assert_eq!(s.id(), 1);
        assert_eq!(s.target(), NodeId::from_u64(7, 32));
        assert_eq!(s.purpose(), LookupPurpose::Locate);
    }

    #[test]
    fn no_progress_terminates_short_of_k() {
        // k = 10 can never be reached: the only contacts in the system are
        // the three seeds, and every response returns already-known nodes.
        let mut s = lookup(0, &[1, 2, 3], 10, 2);
        while !s.is_finished() {
            for c in s.next_queries() {
                s.on_response(&c.id, &[contact(1), contact(2), contact(3)]);
            }
        }
        assert_eq!(s.responded(), 3, "all three seeds responded");
        assert!(s.is_finished(), "no untried candidates left");
        assert!(s.next_queries().is_empty(), "finished lookups stay quiet");
        assert_eq!(s.closest_responded(10).len(), 3);
    }

    #[test]
    fn alpha_cap_never_exceeded_mid_lookup() {
        // Drive a lookup whose responses keep feeding fresh candidates and
        // check the α cap after every single state transition.
        let alpha = 3;
        let mut s = lookup(0, &[10, 20, 30, 40, 50], 100, alpha);
        let mut next_new = 1000u64;
        let mut round = 0;
        while !s.is_finished() && round < 50 {
            round += 1;
            let queries = s.next_queries();
            assert!(
                s.in_flight() <= alpha,
                "in_flight {} exceeds alpha after next_queries",
                s.in_flight()
            );
            if !queries.is_empty() {
                assert_eq!(
                    s.in_flight(),
                    alpha,
                    "next_queries tops the window back up to exactly alpha \
                     while untried candidates remain"
                );
            }
            for (i, c) in queries.iter().enumerate() {
                // Alternate: responses (bearing two new candidates each)
                // and failures.
                if i % 2 == 0 {
                    let fresh = vec![contact(next_new), contact(next_new + 1)];
                    next_new += 2;
                    s.on_response(&c.id, &fresh);
                } else {
                    s.on_failure(&c.id);
                }
                assert!(
                    s.in_flight() <= alpha,
                    "in_flight {} exceeds alpha mid-round",
                    s.in_flight()
                );
            }
        }
        assert!(s.responded() > 0);
    }

    #[test]
    fn every_shortlist_member_failing_yields_empty_result() {
        let mut s = lookup(0, &[1, 2, 3, 4], 5, 2);
        let mut failed = 0;
        while !s.is_finished() {
            let queries = s.next_queries();
            assert!(!queries.is_empty(), "unfinished lookup must make progress");
            for c in queries {
                s.on_failure(&c.id);
                failed += 1;
            }
        }
        assert_eq!(failed, 4, "all four candidates were tried and failed");
        assert_eq!(s.responded(), 0);
        assert_eq!(s.result_hops(), 0, "no responder, no hop count");
        assert!(s.closest_responded(5).is_empty());
        assert!(s.next_queries().is_empty());
    }

    #[test]
    fn hop_depth_tracks_discovery_chain() {
        let mut s = lookup(0, &[100], 20, 1);
        let q = s.next_queries();
        assert_eq!(q, vec![contact(100)]);
        // Seed (hop 1) responds with a closer node -> that node is hop 2.
        s.on_response(&NodeId::from_u64(100, 32), &[contact(4)]);
        let q = s.next_queries();
        assert_eq!(q, vec![contact(4)]);
        s.on_response(&NodeId::from_u64(4, 32), &[contact(1)]);
        let q = s.next_queries();
        assert_eq!(q, vec![contact(1)]);
        // Hop-3 node is now the closest responder.
        s.on_response(&NodeId::from_u64(1, 32), &[]);
        assert_eq!(s.result_hops(), 3);
        assert_eq!(s.messages_sent(), 3);
    }

    #[test]
    fn partition_seeds_is_disjoint_and_balanced() {
        let seeds: Vec<Contact> = (1..=7).map(contact).collect();
        let paths = partition_seeds(seeds.clone(), 3);
        assert_eq!(paths.len(), 3);
        // Round-robin: sizes differ by at most one, closest seeds spread
        // across paths.
        assert_eq!(paths[0].len(), 3);
        assert_eq!(paths[1].len(), 2);
        assert_eq!(paths[2].len(), 2);
        assert_eq!(paths[0][0], contact(1));
        assert_eq!(paths[1][0], contact(2));
        assert_eq!(paths[2][0], contact(3));
        // Disjoint: every seed appears in exactly one path.
        let mut all: Vec<Contact> = paths.into_iter().flatten().collect();
        all.sort_by_key(|c| c.addr.0);
        assert_eq!(all, seeds);
    }

    #[test]
    fn partition_seeds_handles_degenerate_inputs() {
        assert!(partition_seeds(Vec::new(), 3).is_empty());
        let one = partition_seeds(vec![contact(1)], 4);
        assert_eq!(one, vec![vec![contact(1)]], "one seed, one path");
        let d_zero = partition_seeds(vec![contact(1), contact(2)], 0);
        assert_eq!(d_zero.len(), 1, "d = 0 clamps to a single path");
        assert_eq!(d_zero[0].len(), 2);
    }

    #[test]
    fn value_found_ends_retrieve_lookups() {
        let mut s = LookupState::new(
            1,
            NodeId::from_u64(0, 32),
            LookupPurpose::Retrieve,
            NodeId::from_u64(u32::MAX as u64, 32),
            &[contact(1), contact(2), contact(3)],
            &config(20, 1),
        );
        let _ = s.next_queries();
        assert!(!s.is_finished());
        s.on_response(&NodeId::from_u64(1, 32), &[]);
        s.mark_value_found();
        assert!(s.value_found());
        assert!(s.is_finished(), "value hit terminates the lookup");
        assert!(s.next_queries().is_empty(), "no queries after the hit");
        assert_eq!(s.result_hops(), 1);
    }

    #[test]
    fn lookup_table_iterates_in_insertion_order() {
        // Regression test for the determinism audit: per-node lookup
        // bookkeeping used to live in a HashMap whose iteration order was
        // hash-dependent; LookupTable pins it to insertion order.
        let mut t = LookupTable::new();
        for id in [7u64, 3, 9, 1] {
            t.insert(LookupEntry {
                state: LookupState::new(
                    id,
                    NodeId::from_u64(0, 32),
                    LookupPurpose::Locate,
                    NodeId::from_u64(u32::MAX as u64, 32),
                    &[contact(1)],
                    &config(20, 3),
                ),
                started: SimTime::ZERO,
                group: None,
                trace: None,
            });
        }
        let ids: Vec<LookupId> = t.iter().map(|s| s.id()).collect();
        assert_eq!(ids, vec![7, 3, 9, 1], "insertion order, not key order");
        assert_eq!(t.remove(9).map(|e| e.state.id()), Some(9));
        assert!(t.remove(9).is_none(), "double-remove is a no-op");
        let ids: Vec<LookupId> = t.iter().map(|s| s.id()).collect();
        assert_eq!(ids, vec![7, 3, 1], "removal keeps survivors in order");
        assert_eq!(t.get(3).map(|s| s.id()), Some(3));
        assert!(t.get(9).is_none());
        let drained: Vec<LookupId> = t.drain().map(|e| e.state.id()).collect();
        assert_eq!(drained, vec![7, 3, 1], "drain is insertion order too");
        assert!(t.is_empty());
    }

    #[test]
    fn an_entry_is_at_most_24_bytes_over_a_keyed_state() {
        // The driver's bookkeeping may cost an entry at most 24 bytes over
        // the bare keyed state.
        let keyed = std::mem::size_of::<(LookupId, LookupState)>();
        assert!(std::mem::size_of::<LookupEntry>() <= keyed + 24);
    }

    #[test]
    fn scratch_reuse_resets_without_reallocating() {
        let cfg = config(2, 2);
        let mut s = lookup(0, &[1, 2, 3], 2, 2);
        let _ = s.next_queries();
        s.on_response(&NodeId::from_u64(1, 32), &[]);
        s.on_response(&NodeId::from_u64(2, 32), &[]);
        assert!(s.is_finished());
        let scratch = s.into_scratch();
        let cap = scratch.shortlist.capacity();
        assert!(
            cap >= cfg.shortlist_capacity() + cfg.k,
            "arena reserved to worst-case shortlist footprint"
        );
        let mut s2 = LookupState::with_scratch(
            2,
            NodeId::from_u64(0, 32),
            LookupPurpose::Locate,
            NodeId::from_u64(u32::MAX as u64, 32),
            &[contact(5)],
            &cfg,
            scratch,
        );
        assert_eq!(s2.next_queries(), vec![contact(5)]);
        assert_eq!(
            s2.shortlist.capacity(),
            cap,
            "warm arena is reset, never reallocated"
        );
    }
}
