//! Shared fixtures for the gate tests.

use dessim::time::{SimDuration, SimTime};
use dessim::transport::Transport;
use flowgraph::DiGraph;
use kad_resilience::snapshot_to_digraph;
use kademlia::config::{KademliaConfig, RefreshPolicy};
use kademlia::network::SimNetwork;

/// Builds a stabilized overlay of `n` nodes with bucket size `k` and
/// returns its connectivity graph — the realistic workload for the κ
/// kernel gates.
pub fn overlay_graph(n: usize, k: usize, seed: u64) -> DiGraph {
    snapshot_to_digraph(&stabilized_network(n, k, seed).snapshot())
}

/// Builds and stabilizes a simulated network (join chain + 120 simulated
/// minutes, which includes one bucket-refresh round).
pub fn stabilized_network(n: usize, k: usize, seed: u64) -> SimNetwork {
    let config = KademliaConfig::builder()
        .k(k)
        .staleness_limit(1)
        .refresh_policy(RefreshPolicy::OccupiedWithMargin(2))
        .build()
        .expect("valid config");
    let mut net = SimNetwork::new(config, Transport::default(), seed);
    let mut prev = None;
    for _ in 0..n {
        let addr = net.spawn_node();
        net.join(addr, prev);
        prev = Some(addr);
        net.run_until(net.now() + SimDuration::from_secs(10));
    }
    net.run_until(SimTime::from_minutes(120));
    net
}
