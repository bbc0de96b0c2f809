//! Distributed intrusion-detection scenario (the paper's second CPS
//! motivation): IDS sensors spread over many corporate branches share
//! alerts through a Kademlia overlay and must keep communicating while an
//! attacker actively knocks sensors out.
//!
//! This example sizes the bucket parameter `k` for a required attacker
//! budget using Equation 2 (`κ > r ≥ a`), then validates the choice with
//! attack simulations on the measured connectivity graph.
//!
//! ```text
//! cargo run --release --example intrusion_detection
//! ```

use kademlia_resilience::kad_experiments::scenario::{ScenarioBuilder, TrafficModel};
use kademlia_resilience::kad_resilience::attack::{simulate_attack, AttackStrategy};
use kademlia_resilience::kad_resilience::resilience;
use kademlia_resilience::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // Requirement: the alert mesh must survive a = 6 simultaneously
    // compromised sensors. Equation 2 needs κ(D) > 6, and the paper's
    // dimensioning rule says the bucket size must exceed the target
    // resilience: k ≥ 7. We double it for headroom.
    let attacker_budget = 6u64;
    let k = resilience::required_bucket_size(attacker_budget) * 2;
    println!(
        "target: tolerate a = {attacker_budget} compromised sensors → need κ > {attacker_budget}, pick k = {k}"
    );

    let mut builder = ScenarioBuilder::quick(120, k);
    builder
        .name("intrusion-detection")
        .seed(99)
        .traffic(TrafficModel {
            lookups_per_min: 10,
            stores_per_min: 1,
        });
    let scenario = builder.build();
    let outcome = run_scenario(&scenario);
    let last = outcome.points.last().expect("snapshots");
    let kappa = last.report.min_connectivity;
    println!(
        "measured after stabilization: κ(D) = {kappa} (resilience r = {})",
        last.report.resilience()
    );
    assert!(
        resilience::tolerates(kappa, attacker_budget),
        "dimensioning failed: κ = {kappa} does not exceed a = {attacker_budget}"
    );

    // Validate empirically: rebuild the graph from a fresh run's final
    // snapshot and bombard it with attacks at the tolerated budget.
    let graph = {
        use kademlia_resilience::kad_resilience::snapshot_to_digraph;
        use kademlia_resilience::kademlia::network::SimNetwork;
        let transport = kademlia_resilience::dessim::transport::Transport::default();
        let mut net = SimNetwork::new(scenario.protocol, transport, scenario.seed);
        let mut prev = None;
        for _ in 0..scenario.size {
            let addr = net.spawn_node();
            net.join(addr, prev);
            prev = Some(addr);
            net.run_until(
                net.now() + kademlia_resilience::dessim::time::SimDuration::from_secs(15),
            );
        }
        net.run_until(SimTime::from_minutes(120));
        snapshot_to_digraph(&net.snapshot())
    };

    let mut rng = SmallRng::seed_from_u64(5);
    let trials = 30;
    let mut survived_random = 0;
    let mut survived_hubs = 0;
    for _ in 0..trials {
        if simulate_attack(
            &graph,
            attacker_budget as usize,
            AttackStrategy::Random,
            &mut rng,
        )
        .expect("budget < n")
        .survivors_connected
        {
            survived_random += 1;
        }
        if simulate_attack(
            &graph,
            attacker_budget as usize,
            AttackStrategy::HighestDegree,
            &mut rng,
        )
        .expect("budget < n")
        .survivors_connected
        {
            survived_hubs += 1;
        }
    }
    println!(
        "attack validation over {trials} trials with budget {attacker_budget}: \
         random kills survived {survived_random}/{trials}, hub kills survived {survived_hubs}/{trials}"
    );
}
