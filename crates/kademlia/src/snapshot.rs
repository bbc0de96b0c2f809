//! Connectivity snapshots of the network's routing state.
//!
//! The paper's methodology (Section 5.2): "we interrupt the simulation and
//! save the current contents of the routing tables of all network nodes to
//! disk into a snapshot file", from which the connectivity graph is built.
//! [`RoutingSnapshot`] is that snapshot file as a value: the *honest alive*
//! nodes (densely re-indexed) and one directed edge per routing-table entry
//! that points at another honest alive node. Departed nodes are not part of
//! the network, hence not vertices; routing-table entries referring to them
//! are dangling pointers, not edges. **Compromised** nodes are excluded the
//! same way — per the paper's system model they may drop all traffic, so
//! neither they nor the routing entries pointing at them contribute to the
//! connectivity `κ` accounts (even though, unlike departed nodes, they keep
//! answering on the wire).

use crate::contact::NodeAddr;
use crate::id::NodeId;
use crate::node::KademliaNode;
use dessim::time::SimTime;

/// A frozen view of the network's connectivity graph at one instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingSnapshot {
    time: SimTime,
    addrs: Vec<NodeAddr>,
    ids: Vec<NodeId>,
    edges: Vec<(u32, u32)>,
}

impl RoutingSnapshot {
    /// Captures a snapshot from the node table. Participating nodes (alive
    /// and not compromised) are assigned dense indices in address order.
    pub fn capture(time: SimTime, nodes: &[KademliaNode]) -> Self {
        let mut index_of = vec![u32::MAX; nodes.len()];
        let mut addrs = Vec::new();
        let mut ids = Vec::new();
        for node in nodes.iter().filter(|n| n.participates()) {
            index_of[node.contact.addr.index()] = addrs.len() as u32;
            addrs.push(node.contact.addr);
            ids.push(node.contact.id);
        }
        let mut edges = Vec::new();
        for node in nodes.iter().filter(|n| n.participates()) {
            let from = index_of[node.contact.addr.index()];
            for contact in node.routing.contacts() {
                let to = index_of
                    .get(contact.addr.index())
                    .copied()
                    .unwrap_or(u32::MAX);
                if to != u32::MAX {
                    edges.push((from, to));
                }
            }
        }
        RoutingSnapshot {
            time,
            addrs,
            ids,
            edges,
        }
    }

    /// When the snapshot was taken.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Number of alive nodes (graph vertices).
    pub fn node_count(&self) -> usize {
        self.addrs.len()
    }

    /// Number of directed edges (routing-table entries to alive nodes).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Dense-index → address mapping.
    pub fn addrs(&self) -> &[NodeAddr] {
        &self.addrs
    }

    /// Dense-index → identifier mapping.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The directed edges over dense indices.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Average out-degree (edges / nodes), 0 for the empty snapshot.
    pub fn avg_out_degree(&self) -> f64 {
        if self.addrs.is_empty() {
            0.0
        } else {
            self.edges.len() as f64 / self.addrs.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KademliaConfig;
    use crate::contact::Contact;

    fn make_nodes(n: u64, k: usize) -> Vec<KademliaNode> {
        let config = KademliaConfig::builder()
            .bits(32)
            .k(k)
            .build()
            .expect("valid");
        (0..n)
            .map(|v| {
                KademliaNode::new(
                    Contact::new(NodeId::from_u64(v + 1, 32), NodeAddr(v as u32)),
                    &config,
                    SimTime::ZERO,
                )
            })
            .collect()
    }

    #[test]
    fn captures_only_alive_nodes() {
        let mut nodes = make_nodes(4, 4);
        nodes[2].alive = false;
        let snap = RoutingSnapshot::capture(SimTime::from_minutes(5), &nodes);
        assert_eq!(snap.node_count(), 3);
        assert_eq!(snap.time(), SimTime::from_minutes(5));
        assert!(!snap.addrs().contains(&NodeAddr(2)));
    }

    #[test]
    fn edges_to_dead_nodes_are_dropped() {
        let mut nodes = make_nodes(3, 4);
        let c1 = nodes[1].contact;
        let c2 = nodes[2].contact;
        nodes[0].routing.offer(c1, SimTime::ZERO);
        nodes[0].routing.offer(c2, SimTime::ZERO);
        nodes[2].alive = false;
        let snap = RoutingSnapshot::capture(SimTime::ZERO, &nodes);
        // Only the edge 0 -> 1 survives; node 2 is gone.
        assert_eq!(snap.edges(), &[(0, 1)]);
    }

    #[test]
    fn compromised_nodes_are_excluded_like_dead_ones() {
        let mut nodes = make_nodes(4, 4);
        let c1 = nodes[1].contact;
        let c2 = nodes[2].contact;
        nodes[0].routing.offer(c1, SimTime::ZERO);
        nodes[0].routing.offer(c2, SimTime::ZERO);
        nodes[2].compromised = true;
        let snap = RoutingSnapshot::capture(SimTime::ZERO, &nodes);
        // Node 2 is alive on the wire but not a vertex, and the edge 0 -> 2
        // is dropped with it.
        assert_eq!(snap.node_count(), 3);
        assert!(!snap.addrs().contains(&NodeAddr(2)));
        assert_eq!(snap.edges(), &[(0, 1)]);
    }

    #[test]
    fn indices_are_dense_in_address_order() {
        let mut nodes = make_nodes(5, 4);
        nodes[0].alive = false;
        nodes[3].alive = false;
        let snap = RoutingSnapshot::capture(SimTime::ZERO, &nodes);
        assert_eq!(snap.addrs(), &[NodeAddr(1), NodeAddr(2), NodeAddr(4)]);
        assert_eq!(snap.ids().len(), 3);
    }

    #[test]
    fn avg_out_degree() {
        let mut nodes = make_nodes(2, 4);
        let c1 = nodes[1].contact;
        nodes[0].routing.offer(c1, SimTime::ZERO);
        let snap = RoutingSnapshot::capture(SimTime::ZERO, &nodes);
        assert!((snap.avg_out_degree() - 0.5).abs() < 1e-12);
        let empty = RoutingSnapshot::capture(SimTime::ZERO, &[]);
        assert_eq!(empty.avg_out_degree(), 0.0);
    }
}
