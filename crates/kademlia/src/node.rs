//! Per-node protocol state and request handling.

use crate::config::KademliaConfig;
use crate::contact::Contact;
use crate::id::NodeId;
use crate::lookup::LookupTable;
use crate::messages::{RequestKind, ResponseBody};
use crate::routing::RoutingTable;
use dessim::time::SimTime;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An Fx-style word hasher for the key store: one multiply per 8-byte word.
/// Keys are random ids and handles are sequential, and a multiply by an
/// odd constant spreads both (the low bits of sequential handles stay
/// distinct, the high bits mix); unlike std's `RandomState` it is the same
/// in every run.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type WordHash = BuildHasherDefault<WordHasher>;

/// Every STORE key the network has seen, interned to a 4-byte handle.
///
/// A key is stored on up to `k` nodes, so each node keeps handles
/// ([`KademliaNode`]'s held set, 4 bytes a replica) and the 20-byte id is
/// kept once, here. [`crate::network::SimNetwork`] owns one table, sized
/// from its node count and dropped with it. A key is interned when a
/// STORE first delivers it; a lookup of a key never stored interns
/// nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct KeyTable {
    handles: HashMap<NodeId, u32, WordHash>,
}

impl KeyTable {
    /// The handle of `key`, interning it if it is new.
    ///
    /// # Panics
    ///
    /// Panics when a 2^32-th distinct key would need a handle.
    pub(crate) fn intern(&mut self, key: NodeId) -> u32 {
        let next = u32::try_from(self.handles.len()).expect("more than 2^32 distinct STORE keys");
        *self.handles.entry(key).or_insert(next)
    }

    /// The handle of `key`, if any STORE has delivered it.
    pub(crate) fn get(&self, key: &NodeId) -> Option<u32> {
        self.handles.get(key).copied()
    }

    /// Grows the table, if needed, to hold `keys` keys without a resize.
    pub(crate) fn reserve_total(&mut self, keys: usize) {
        if self.handles.capacity() < keys {
            self.handles.reserve(keys - self.handles.len());
        }
    }
}

/// One simulated Kademlia node: identity, routing table, stored keys and
/// in-progress lookups.
///
/// Nodes are pure protocol state; all I/O (transport, timers) is owned by
/// [`crate::network::SimNetwork`], which calls into the node and sends
/// whatever needs sending.
#[derive(Clone, Debug)]
pub struct KademliaNode {
    /// This node's identity and address.
    pub contact: Contact,
    /// The node's routing table.
    pub routing: RoutingTable,
    /// Handles ([`KeyTable`]) of the keys stored at this node via STORE;
    /// [`crate::network::SimNetwork::holds`] answers for a key.
    held: HashSet<u32, WordHash>,
    /// Whether the node is part of the network. Dead nodes silently drop
    /// everything — indistinguishable from a crashed node.
    pub alive: bool,
    /// Whether the node has been compromised by the attacker. Unlike a
    /// silent departure, a compromised node **keeps answering** protocol
    /// requests (mimicking honest behavior so it is never evicted and keeps
    /// occupying routing-table slots), but the paper's system model says it
    /// may drop all traffic at will — so it is excluded from the
    /// connectivity graph and all `κ` accounting
    /// ([`crate::snapshot::RoutingSnapshot`] skips it).
    pub compromised: bool,
    /// When the node joined the network.
    pub joined_at: SimTime,
    /// The bootstrap contact this node joined through. Kept as a recovery
    /// seed: if loss evicts every routing-table entry before the join
    /// completes (a real possibility at `s = 1` under heavy loss), the
    /// next lookup re-seeds from the bootstrap — the overlay equivalent of
    /// a deployed node retrying its configured bootstrap list.
    pub bootstrap: Option<Contact>,
    /// In-progress lookups, in insertion order (see [`LookupTable`]).
    pub lookups: LookupTable,
}

impl KademliaNode {
    /// Creates an alive node with an empty routing table.
    pub fn new(contact: Contact, config: &KademliaConfig, now: SimTime) -> Self {
        KademliaNode {
            contact,
            routing: RoutingTable::new(contact.id, config),
            // Reserved headroom: STORE traffic grows this set from inside
            // the event loop, and a resize there would be an allocation of
            // the data plane. 64 handles (112 slots, 656 bytes) absorb
            // about 45 minutes of the pinned load's store rate (one store
            // per 8 nodes a minute, `k = 20` replicas each) and about five
            // of the paper's (one per node a minute) before the first
            // resize.
            held: HashSet::with_capacity_and_hasher(64, WordHash::default()),
            alive: true,
            compromised: false,
            joined_at: now,
            bootstrap: None,
            lookups: LookupTable::new(),
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.contact.id
    }

    /// Whether the node counts as an honest participant of the overlay:
    /// alive and not compromised. Exactly the nodes that become vertices of
    /// the connectivity graph.
    pub fn participates(&self) -> bool {
        self.alive && !self.compromised
    }

    /// Whether a STORE delivered `key` to this node.
    pub(crate) fn holds(&self, keys: &KeyTable, key: &NodeId) -> bool {
        keys.get(key).is_some_and(|h| self.held.contains(&h))
    }

    /// Forgets every stored key (the node departed; nothing reads a dead
    /// node's store, so its memory goes).
    pub(crate) fn drop_keys(&mut self) {
        self.held = HashSet::default();
    }

    /// Handles an incoming request, updating local state, and produces the
    /// response body. The caller (network driver) has already verified the
    /// node is alive and recorded the requester in the routing table;
    /// `keys` is the network's key table.
    ///
    /// When the response body carries contacts (FIND_NODE, or a
    /// FIND_VALUE miss), `buf` is filled and *taken* into the body;
    /// otherwise it is left untouched so the caller can recycle it — the
    /// allocation-free path the simulator's buffer pool uses.
    pub(crate) fn handle_request_with(
        &mut self,
        kind: &RequestKind,
        k: usize,
        keys: &mut KeyTable,
        buf: &mut Vec<Contact>,
    ) -> ResponseBody {
        match kind {
            RequestKind::Ping => ResponseBody::Pong,
            RequestKind::FindNode(target) => {
                self.routing.closest_into(target, k, buf);
                ResponseBody::Nodes(std::mem::take(buf))
            }
            RequestKind::Store(key) => {
                self.held.insert(keys.intern(*key));
                ResponseBody::StoreOk
            }
            RequestKind::FindValue(key) => {
                // A compromised node keeps mimicking honest *routing*
                // behavior (so it is never evicted — the eclipse
                // mechanics), but **withholds stored values**: the paper's
                // system model lets it drop traffic at will, and denying
                // retrievals is exactly the service-level attack the
                // dissemination-durability probe measures.
                if !self.compromised && self.holds(keys, key) {
                    ResponseBody::Value {
                        found: true,
                        nodes: Vec::new(),
                    }
                } else {
                    self.routing.closest_into(key, k, buf);
                    ResponseBody::Value {
                        found: false,
                        nodes: std::mem::take(buf),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::NodeAddr;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn node_with_bits(bits: u16, addr: u32) -> KademliaNode {
        let config = KademliaConfig::builder()
            .bits(bits)
            .k(2)
            .build()
            .expect("valid");
        KademliaNode::new(
            Contact::new(NodeId::from_u64(u64::from(addr), bits), NodeAddr(addr)),
            &config,
            SimTime::ZERO,
        )
    }

    fn node() -> KademliaNode {
        node_with_bits(32, 0)
    }

    /// The node's answer to `kind` with `k = 2`, through a fresh buffer.
    fn ask(n: &mut KademliaNode, keys: &mut KeyTable, kind: RequestKind) -> ResponseBody {
        n.handle_request_with(&kind, 2, keys, &mut Vec::new())
    }

    #[test]
    fn ping_pongs() {
        let mut n = node();
        let mut keys = KeyTable::default();
        assert_eq!(
            ask(&mut n, &mut keys, RequestKind::Ping),
            ResponseBody::Pong
        );
    }

    #[test]
    fn find_node_returns_closest() {
        let mut n = node();
        for v in [1u64, 9, 200] {
            n.routing.offer(
                Contact::new(NodeId::from_u64(v, 32), NodeAddr(v as u32)),
                SimTime::ZERO,
            );
        }
        let kind = RequestKind::FindNode(NodeId::from_u64(8, 32));
        match ask(&mut n, &mut KeyTable::default(), kind) {
            ResponseBody::Nodes(nodes) => {
                assert_eq!(nodes.len(), 2);
                assert_eq!(nodes[0].addr, NodeAddr(9)); // distance 1
                assert_eq!(nodes[1].addr, NodeAddr(1)); // distance 9
            }
            other => panic!("expected Nodes, got {other:?}"),
        }
    }

    #[test]
    fn store_persists_key() {
        let mut n = node();
        let mut keys = KeyTable::default();
        let key = NodeId::from_u64(77, 32);
        assert_eq!(
            ask(&mut n, &mut keys, RequestKind::Store(key)),
            ResponseBody::StoreOk
        );
        assert!(n.holds(&keys, &key));
        assert!(!n.holds(&keys, &NodeId::from_u64(78, 32)));
    }

    #[test]
    fn new_node_is_alive_and_empty() {
        let n = node();
        assert!(n.alive);
        assert_eq!(n.routing.contact_count(), 0);
        assert!(n.lookups.is_empty());
        assert!(n.held.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Interned key sets against one `HashSet<NodeId>` per node: random
        /// STOREs, membership queries and FIND_VALUEs over a key pool that
        /// also holds keys no STORE ever delivers, with nodes compromised
        /// along the way. A FIND_VALUE is served exactly when the node is
        /// honest and the reference holds the key; otherwise it answers
        /// with contacts.
        #[test]
        fn interned_store_matches_a_hash_set_reference(
            seed in any::<u64>(),
            bits_pick in 0usize..2,
            nodes in 1usize..6,
            pool_size in 1usize..64,
        ) {
            let bits = [32u16, 160][bits_pick];
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut keys = KeyTable::default();
            let mut net: Vec<KademliaNode> =
                (0..nodes as u32).map(|a| node_with_bits(bits, a)).collect();
            for n in &mut net {
                for v in [1000u64, 2000] {
                    n.routing.offer(Contact::new(NodeId::from_u64(v, bits), NodeAddr(v as u32)), SimTime::ZERO);
                }
            }
            let mut reference: Vec<HashSet<NodeId>> = vec![HashSet::new(); nodes];
            let pool: Vec<NodeId> = (0..pool_size).map(|_| NodeId::random(&mut rng, bits)).collect();
            for _ in 0..400 {
                let (i, key) = (rng.random_range(0..nodes), pool[rng.random_range(0..pool_size)]);
                match rng.random_range(0u8..10) {
                    0..=3 => {
                        let body = ask(&mut net[i], &mut keys, RequestKind::Store(key));
                        prop_assert_eq!(body, ResponseBody::StoreOk);
                        reference[i].insert(key);
                    }
                    4..=6 => {
                        let found = match ask(&mut net[i], &mut keys, RequestKind::FindValue(key)) {
                            ResponseBody::Value { found, nodes } => {
                                // A hit carries the value, a miss the closest contacts.
                                prop_assert_eq!(nodes.is_empty(), found);
                                found
                            }
                            other => return Err(TestCaseError::fail(format!("expected Value, got {other:?}"))),
                        };
                        prop_assert_eq!(found, !net[i].compromised && reference[i].contains(&key));
                    }
                    7 => net[i].compromised = true,
                    _ => {}
                }
                prop_assert_eq!(net[i].holds(&keys, &key), reference[i].contains(&key));
                prop_assert_eq!(net[i].held.len(), reference[i].len());
            }
            // Every pool key, stored or not, at every node.
            for (n, r) in net.iter().zip(&reference) {
                for key in &pool {
                    prop_assert_eq!(n.holds(&keys, key), r.contains(key));
                }
            }
            // One handle per distinct stored key, however many replicas.
            let distinct: HashSet<NodeId> = reference.iter().flatten().copied().collect();
            prop_assert_eq!(keys.handles.len(), distinct.len());
        }
    }
}
