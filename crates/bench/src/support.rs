//! Shared fixtures for the gate tests.

use dessim::time::{SimDuration, SimTime};
use dessim::transport::Transport;
use flowgraph::DiGraph;
use kad_resilience::snapshot_to_digraph;
use kademlia::config::{KademliaConfig, RefreshPolicy};
use kademlia::network::SimNetwork;
use std::time::Instant;

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

/// The median over `rounds` rounds (an odd number) of
/// `time(treated) / time(control)`.
///
/// Each round prepares both sides untimed (`prepare(false)` is the
/// control, `prepare(true)` the treated side), runs one untimed warm-up
/// `slice` on each, then times `slices` runs of `slice` on each,
/// interleaved. Which side is prepared first and which runs first in a
/// pair of slices alternate, so neither side always gets the colder
/// cache. A side's time is the sum over its slices, and each round yields
/// one ratio. The speed of a shared host drifts over milliseconds; thin
/// interleaved slices put both sides in the same drift, and the median
/// discards rounds that a descheduling spoiled on one side.
pub fn paired_ratio_median<S>(
    rounds: usize,
    slices: usize,
    mut prepare: impl FnMut(bool) -> S,
    mut slice: impl FnMut(&mut S),
) -> f64 {
    assert!(rounds % 2 == 1, "an odd number of rounds has one median");
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|round| {
            let mut sides = if round % 2 == 0 {
                let control = prepare(false);
                [control, prepare(true)]
            } else {
                let treated = prepare(true);
                [prepare(false), treated]
            };
            let mut secs = [0.0; 2];
            for pair in 0..=slices {
                let first = (round + pair) % 2;
                for i in [first, 1 - first] {
                    let started = Instant::now();
                    slice(&mut sides[i]);
                    if pair > 0 {
                        secs[i] += started.elapsed().as_secs_f64();
                    }
                }
            }
            secs[1] / secs[0]
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[rounds / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_rounds_alternate_preparation_and_warm_both_sides() {
        let mut prepared = Vec::new();
        let mut slices = [0; 2];
        paired_ratio_median(
            3,
            4,
            |treated| {
                prepared.push(treated);
                treated
            },
            |treated| slices[usize::from(*treated)] += 1,
        );
        assert_eq!(prepared, [false, true, true, false, false, true]);
        // Four timed slices and one warm-up per side per round.
        assert_eq!(slices, [15, 15]);
    }
}
