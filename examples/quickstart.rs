//! Quickstart: simulate a Kademlia overlay, snapshot it, and measure how
//! many compromised nodes it can tolerate.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use kademlia_resilience::prelude::*;

fn main() {
    // A 64-node network with the Kademlia default bucket size scaled down
    // (k = 8) so the example finishes in seconds.
    let scenario = ScenarioBuilder::quick(64, 8).seed(2024).build();
    println!(
        "simulating {} nodes (k = {}, α = {}, b = {} bits) for {} minutes…",
        scenario.size,
        scenario.protocol.k,
        scenario.protocol.alpha,
        scenario.protocol.bits,
        scenario.end_minutes()
    );

    let outcome = run_scenario(&scenario);

    println!("\n time(min)  size   κ_min   κ_avg   resilience");
    for snap in &outcome.points {
        println!(
            "  {:>7.0}  {:>5}  {:>5}  {:>6.1}  {:>10}",
            snap.time_min,
            snap.honest_size,
            snap.report.min_connectivity,
            snap.report.avg_connectivity.unwrap_or(f64::NAN),
            snap.report.resilience()
        );
    }

    let last = outcome.points.last().expect("snapshots recorded");
    println!(
        "\nfinal connectivity κ(D) = {} → the network tolerates {} \
         simultaneously compromised nodes (Equation 2: κ > r ≥ a)",
        last.report.min_connectivity,
        last.report.resilience()
    );
    println!(
        "messages sent: {}, lookups: {}, disseminations: {}",
        outcome.counters.get("msg_sent"),
        outcome.counters.get("lookup_started"),
        outcome.counters.get("store_started"),
    );
}
