//! The paper's most counter-intuitive finding, reproduced in miniature:
//! **message loss increases connectivity** (Section 5.8, Simulation J).
//!
//! Failed round trips evict contacts from routing tables, freeing bucket
//! slots for *new* contacts; the network keeps re-wiring itself and ends up
//! better connected than the frozen no-loss topology. (Loss still hurts
//! latency and lookup quality — the paper is explicit that this is not a
//! free lunch.)
//!
//! ```text
//! cargo run --release --example message_loss_paradox
//! ```

use kademlia_resilience::dessim::loss::LossScenario;
use kademlia_resilience::kad_experiments::runner::run_scenario;
use kademlia_resilience::kad_experiments::scenario::{ScenarioBuilder, TrafficModel};

fn main() {
    println!("simulating the same 80-node network under four loss scenarios…\n");
    println!(" loss     final κ_min  final κ_avg  timeouts");
    let mut results = Vec::new();
    for loss in LossScenario::ALL {
        let mut builder = ScenarioBuilder::quick(80, 10);
        builder
            .name(format!("loss-{loss}"))
            .seed(31)
            .loss(loss)
            .staleness_limit(1)
            .traffic(TrafficModel {
                lookups_per_min: 10,
                stores_per_min: 1,
            })
            .churn_minutes(60)
            .snapshot_minutes(20);
        let outcome = run_scenario(&builder.build());
        let last = outcome.points.last().expect("snapshots");
        let avg = last
            .report
            .avg_connectivity
            .expect("full-flow sweep reports an average");
        println!(
            " {:<8} {:>11} {:>12.1} {:>9}",
            loss.to_string(),
            last.report.min_connectivity,
            avg,
            outcome.counters.get("rpc_timeout"),
        );
        results.push((loss, avg));
    }

    let none_avg = results
        .iter()
        .find(|(l, _)| *l == LossScenario::None)
        .map(|(_, a)| *a)
        .expect("none scenario present");
    let high_avg = results
        .iter()
        .find(|(l, _)| *l == LossScenario::High)
        .map(|(_, a)| *a)
        .expect("high scenario present");
    println!(
        "\nwith s = 1, high loss yields {:.1} average connectivity vs {:.1} without loss — {}",
        high_avg,
        none_avg,
        if high_avg > none_avg {
            "the paradox reproduces: loss helps connectivity"
        } else {
            "at this miniature scale the effect is within noise; run `repro fig12` for the full sweep"
        }
    );
}
