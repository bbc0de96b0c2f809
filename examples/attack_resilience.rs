//! Equation 2 made concrete: what does `κ(D) > r ≥ a` buy you against an
//! *optimal* attacker?
//!
//! This example measures a network's connectivity, extracts an actual
//! minimum vertex cut (the optimal attack set), and shows that (a) any
//! attack below the resilience bound fails, and (b) the min-cut attack at
//! budget κ succeeds — the bound is tight.
//!
//! ```text
//! cargo run --release --example attack_resilience
//! ```

use kademlia_resilience::flowgraph::generators::random_k_out_symmetric;
use kademlia_resilience::flowgraph::vertex_flow::VertexFlow;
use kademlia_resilience::flowgraph::witness::cut_disconnects;
use kademlia_resilience::kad_resilience::attack::{simulate_attack, AttackStrategy};
use kademlia_resilience::kad_resilience::kappa::exact_min;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(42);
    // A Kademlia-like overlay graph: 80 nodes, 6 mutual contacts each.
    let g = random_k_out_symmetric(80, 6, &mut rng);
    println!(
        "overlay graph: {} nodes, {} edges, reciprocity {:.2}",
        g.node_count(),
        g.edge_count(),
        g.reciprocity()
    );

    let kappa = exact_min(&g);
    let resilience = kappa.saturating_sub(1);
    println!("exact connectivity κ(D) = {kappa} → resilience r = {resilience}");

    // (a) Random attacks within the bound never disconnect the network.
    let trials = 100;
    let mut survived = 0;
    for _ in 0..trials {
        let outcome = simulate_attack(&g, resilience as usize, AttackStrategy::Random, &mut rng)
            .expect("budget r < n");
        if outcome.survivors_connected {
            survived += 1;
        }
    }
    println!("random attacks with budget r = {resilience}: survived {survived}/{trials} (must be {trials}/{trials})");
    assert_eq!(survived, trials, "Equation 2 guarantee violated!");

    // (b) The bound is tight: a minimum vertex cut of size κ disconnects
    // some pair.
    let mut kernel = VertexFlow::new(&g);
    let mut tight = None;
    for v in 0..g.node_count() as u32 {
        for w in 0..g.node_count() as u32 {
            if let Some(cut) = kernel.min_cut(v, w) {
                if cut.len() as u64 == kappa {
                    tight = Some((v, w, cut));
                    break;
                }
            }
        }
        if tight.is_some() {
            break;
        }
    }
    let (v, w, cut) = tight.expect("some pair realizes the minimum");
    println!(
        "optimal attack: removing the {} nodes {:?} severs every path {v} → {w}",
        cut.len(),
        cut
    );
    assert!(cut_disconnects(&g, v, w, &cut));
    println!("verified: the pair is disconnected after the cut — the κ bound is tight");
}
