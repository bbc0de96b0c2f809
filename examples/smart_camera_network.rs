//! Smart-camera-network scenario (the paper's first CPS motivation).
//!
//! An industrial site runs a few hundred networked cameras that coordinate
//! tracking via a Kademlia overlay. Cameras occasionally fail or get taken
//! down for maintenance (churn 0/1 after stabilization). The operator
//! wants to know: *how many cameras can an attacker silence before
//! tracking hand-off between any two cameras becomes impossible?*
//!
//! ```text
//! cargo run --release --example smart_camera_network
//! ```

use kademlia_resilience::kad_experiments::runner::run_scenario;
use kademlia_resilience::kad_experiments::scenario::{ChurnRate, ScenarioBuilder, TrafficModel};
use kademlia_resilience::kad_resilience::resilience;

fn main() {
    // 100 cameras (the paper's SCN uses 250; shrink for example runtime),
    // k = 20 (Kademlia default), staleness s = 1 for fast failure
    // detection, continuous tracking traffic.
    let mut builder = ScenarioBuilder::quick(100, 20);
    builder
        .name("smart-camera-network")
        .seed(7)
        .traffic(TrafficModel {
            lookups_per_min: 10,
            stores_per_min: 1,
        })
        .churn(ChurnRate::ZERO_ONE)
        .churn_minutes(30)
        .snapshot_minutes(10);
    let scenario = builder.build();

    println!(
        "simulating {} cameras, k = {}, churn {} after minute {}…\n",
        scenario.size,
        scenario.protocol.k,
        scenario.churn.label(),
        scenario.stabilization_minutes
    );
    let outcome = run_scenario(&scenario);

    println!(" time(min)  cameras  κ_min  tolerated attackers");
    for snap in &outcome.points {
        println!(
            "  {:>7.0}  {:>7}  {:>5}  {:>19}",
            snap.time_min,
            snap.honest_size,
            snap.report.min_connectivity,
            snap.report.resilience(),
        );
    }

    let stabilized = outcome
        .points
        .iter()
        .rfind(|s| s.time_min >= 60.0 && s.time_min <= scenario.stabilization_minutes as f64);
    if let Some(snap) = stabilized {
        let kappa = snap.report.min_connectivity;
        println!(
            "\nafter stabilization: κ(D) = {kappa} → the overlay is {}-resilient",
            resilience::resilience_from_connectivity(kappa)
        );
        println!(
            "to survive a = 10 compromised cameras you need κ > 10; \
             the paper's rule of thumb is k > r, so k = {} {}",
            scenario.protocol.k,
            if resilience::tolerates(kappa, 10) {
                "suffices here"
            } else {
                "is not yet enough here"
            }
        );
    }
}
