//! The dissemination-durability probe: is stored data still reachable?
//!
//! The paper's dissemination procedure stores each object on the `k`
//! closest nodes and argues (via connection resilience) about whether that
//! replica set stays reachable. This probe measures it directly at the
//! service level: [`DurabilityProbe::store_round`] disseminates fresh
//! objects from random honest nodes, and [`DurabilityProbe::probe_round`]
//! later issues FIND_VALUE retrievals ([`SimNetwork::start_find_value`])
//! for every tracked key from fresh random honest origins. Retrieval
//! outcomes surface through the network's telemetry sink as
//! [`kad_telemetry::LookupRecord`]s with purpose `Retrieve` — the
//! "fraction of stored objects still retrievable" series the service
//! experiments plot next to `κ(t)`.
//!
//! Retrievals are *network-only* on purpose: the probing origin never
//! consults its own storage, because the question is whether **someone
//! else** can still fetch the object through the overlay. Compromised
//! nodes keep answering routing queries but withhold values (see
//! [`SimNetwork::compromise_node`]), so an eclipse attack on
//! a key's neighborhood degrades retrievability exactly as the system
//! model predicts.
//!
//! The probe is deliberately oblivious to the simulation's internals — it
//! only uses the public `SimNetwork` API plus its own RNG, so experiment
//! harnesses can schedule store/probe rounds on any grid they like.

use crate::id::NodeId;
use crate::network::SimNetwork;
use crate::NodeAddr;
use rand::rngs::SmallRng;
use rand::Rng;

/// Tracks disseminated objects and re-probes their retrievability.
#[derive(Clone, Debug, Default)]
pub struct DurabilityProbe {
    keys: Vec<NodeId>,
}

impl DurabilityProbe {
    /// Creates a probe tracking no objects yet.
    pub fn new() -> Self {
        DurabilityProbe::default()
    }

    /// The keys disseminated so far, in store order.
    pub fn keys(&self) -> &[NodeId] {
        &self.keys
    }

    /// Disseminates `count` fresh random objects, each from a random
    /// *honest* alive node, and tracks their keys. Returns how many
    /// disseminations were actually started (0 when no honest node is
    /// left).
    pub fn store_round(&mut self, net: &mut SimNetwork, count: usize, rng: &mut SmallRng) -> usize {
        let bits = net.config().bits;
        // One honest-set scan per round: starting stores/retrievals never
        // changes liveness or compromise state, so the set is loop-stable.
        let honest = net.honest_addrs();
        if honest.is_empty() {
            return 0;
        }
        let mut started = 0;
        for _ in 0..count {
            let origin = honest[rng.random_range(0..honest.len())];
            let key = NodeId::random(rng, bits);
            if net.start_store(origin, key).is_some() {
                self.keys.push(key);
                started += 1;
            }
        }
        started
    }

    /// Issues one FIND_VALUE retrieval per tracked key, each from a fresh
    /// random honest origin. Returns the number of retrievals started.
    /// Outcomes arrive through the network's telemetry sink.
    pub fn probe_round(&self, net: &mut SimNetwork, rng: &mut SmallRng) -> usize {
        // d = 1 degrades to a plain FIND_VALUE per key — one shared loop
        // keeps the single- and disjoint-path columns apples-to-apples.
        self.probe_round_disjoint(net, 1, rng)
    }

    /// Like [`DurabilityProbe::probe_round`], but each retrieval runs as
    /// a **disjoint-path** lookup with `d` independent paths
    /// ([`SimNetwork::start_find_value_disjoint`]): the retrieval
    /// succeeds if any path reaches an honest holder, countering
    /// value-withholding compromised nodes on the primary path. Outcomes
    /// arrive as [`kad_telemetry::TracePurpose::RetrieveDisjoint`]
    /// records, so harnesses can report single- and disjoint-path
    /// retrievability side by side from the same run.
    pub fn probe_round_disjoint(
        &self,
        net: &mut SimNetwork,
        d: usize,
        rng: &mut SmallRng,
    ) -> usize {
        let honest = net.honest_addrs();
        if honest.is_empty() {
            return 0;
        }
        let mut started = 0;
        for &key in &self.keys {
            let origin = honest[rng.random_range(0..honest.len())];
            if net.start_find_value_disjoint(origin, key, d).is_some() {
                started += 1;
            }
        }
        started
    }

    /// Ground-truth retrievability: the number of tracked keys held by at
    /// least one *honest alive* node. The protocol-level probe can only do
    /// worse than this oracle (it must also route to a holder); tests use
    /// the gap to bound routing-layer losses.
    pub fn oracle_retrievable(&self, net: &SimNetwork) -> usize {
        let honest: Vec<NodeAddr> = net.honest_addrs();
        self.keys
            .iter()
            .filter(|key| honest.iter().any(|&a| net.holds(a, key)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KademliaConfig;
    use dessim::latency::LatencyModel;
    use dessim::time::{SimDuration, SimTime};
    use dessim::transport::Transport;
    use kad_telemetry::{LookupOutcome, TracePurpose, VecSink};
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn build_network(n: usize, k: usize, seed: u64) -> SimNetwork {
        let config = KademliaConfig::builder()
            .bits(32)
            .k(k)
            .staleness_limit(1)
            .build()
            .expect("valid");
        let transport = Transport::lossless(LatencyModel::Constant(SimDuration::from_millis(10)));
        let mut net = SimNetwork::new(config, transport, seed);
        let mut prev = None;
        for i in 0..n {
            let addr = net.spawn_node();
            net.join(addr, prev);
            prev = Some(addr);
            net.run_until(SimTime::from_secs((i as u64 + 1) * 10));
        }
        net.run_until(SimTime::from_minutes(30));
        net
    }

    #[test]
    fn stored_objects_are_retrievable_on_a_healthy_network() {
        let mut net = build_network(16, 4, 31);
        let sink = Rc::new(RefCell::new(VecSink::default()));
        net.set_telemetry_sink(Box::new(Rc::clone(&sink)));
        let mut rng = SmallRng::seed_from_u64(7);
        let mut probe = DurabilityProbe::new();
        assert_eq!(probe.store_round(&mut net, 5, &mut rng), 5);
        assert_eq!(probe.keys().len(), 5);
        net.run_until(net.now() + SimDuration::from_secs(60));
        assert_eq!(probe.oracle_retrievable(&net), 5, "all objects stored");
        assert_eq!(probe.probe_round(&mut net, &mut rng), 5);
        net.run_until(net.now() + SimDuration::from_secs(60));
        let records = sink.borrow();
        let retrieves: Vec<_> = records
            .records
            .iter()
            .filter(|r| r.purpose == TracePurpose::Retrieve)
            .collect();
        assert_eq!(retrieves.len(), 5);
        assert!(
            retrieves
                .iter()
                .all(|r| r.outcome == LookupOutcome::ValueFound),
            "healthy lossless overlay retrieves everything: {retrieves:?}"
        );
    }

    #[test]
    fn eclipsing_the_replica_set_defeats_retrieval() {
        let mut net = build_network(16, 3, 32);
        let sink = Rc::new(RefCell::new(VecSink::default()));
        net.set_telemetry_sink(Box::new(Rc::clone(&sink)));
        let mut rng = SmallRng::seed_from_u64(9);
        let mut probe = DurabilityProbe::new();
        probe.store_round(&mut net, 1, &mut rng);
        net.run_until(net.now() + SimDuration::from_secs(60));
        // Compromise every holder of the key: values are withheld even
        // though the nodes keep answering routing queries.
        let key = probe.keys()[0];
        let holders: Vec<NodeAddr> = net
            .alive_addrs()
            .into_iter()
            .filter(|&a| net.holds(a, &key))
            .collect();
        assert!(!holders.is_empty());
        for addr in holders {
            net.compromise_node(addr);
        }
        assert_eq!(probe.oracle_retrievable(&net), 0, "no honest holder left");
        probe.probe_round(&mut net, &mut rng);
        net.run_until(net.now() + SimDuration::from_secs(60));
        let records = sink.borrow();
        let outcome = records
            .records
            .iter()
            .rev()
            .find(|r| r.purpose == TracePurpose::Retrieve)
            .expect("probe emitted a retrieve record")
            .outcome;
        assert_eq!(outcome, LookupOutcome::ValueMissing);
    }

    #[test]
    fn probe_survives_an_empty_network() {
        let config = KademliaConfig::builder().bits(32).k(4).build().unwrap();
        let mut net = SimNetwork::new(config, Transport::default(), 1);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut probe = DurabilityProbe::new();
        assert_eq!(probe.store_round(&mut net, 3, &mut rng), 0);
        assert_eq!(probe.probe_round(&mut net, &mut rng), 0);
        assert_eq!(probe.oracle_retrievable(&net), 0);
    }
}
