//! Attack simulation: empirical validation of Equation 2.
//!
//! The paper's system model assumes an attacker who compromises up to `a`
//! nodes; a compromised node can drop all traffic, so from a connectivity
//! standpoint it is *removed*. [`simulate_attack`] removes a victim set in
//! a single blow and checks whether the survivors can still all
//! communicate — the operational meaning of r-resilience — and
//! [`equation2_holds`] probes the theorem behind it. The temporal attacker,
//! which compromises nodes minute by minute while the overlay keeps living,
//! is the live campaign grid in `kad_experiments`; its min-cut strategy
//! scouts each minute's snapshot with [`probe_smallest_cut`].
//!
//! # Example
//!
//! A 12-node bidirected ring has κ = 2: one compromise never disconnects
//! it, a two-vertex minimum cut does.
//!
//! ```
//! use flowgraph::generators::bidirected_cycle;
//! use kad_resilience::attack::{simulate_attack, AttackStrategy};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let g = bidirected_cycle(12);
//! let mut rng = SmallRng::seed_from_u64(7);
//! let one = simulate_attack(&g, 1, AttackStrategy::Random, &mut rng).expect("budget < n");
//! assert!(one.survivors_connected);
//! let two = simulate_attack(&g, 2, AttackStrategy::MinimumCut, &mut rng).expect("budget < n");
//! assert!(!two.survivors_connected);
//! ```

use crate::kappa::exact_min;
use flowgraph::scc::is_strongly_connected;
use flowgraph::vertex_flow::VertexFlow;
use flowgraph::DiGraph;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;
use std::fmt;

/// How the attacker picks victims.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackStrategy {
    /// Uniformly random victims — models failures/maintenance, which the
    /// paper notes are indistinguishable from attacks.
    Random,
    /// Remove the best-connected nodes first (highest in+out degree) — a
    /// knowledgeable attacker going after hubs.
    HighestDegree,
    /// Remove a minimum vertex cut between some non-adjacent pair — the
    /// optimal attacker the `κ > a` guarantee defends against.
    MinimumCut,
}

/// Typed failure of an attack simulation — returned instead of panicking so
/// a degenerate cell (e.g. a budget larger than the network after heavy
/// churn) cannot abort a whole scenario-matrix run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttackError {
    /// The attacker budget would not leave a single survivor.
    BudgetExceedsNetwork {
        /// Requested number of compromises.
        budget: usize,
        /// Vertices in the graph.
        nodes: usize,
    },
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::BudgetExceedsNetwork { budget, nodes } => write!(
                f,
                "attacker budget {budget} must leave at least one of {nodes} nodes"
            ),
        }
    }
}

impl std::error::Error for AttackError {}

/// Result of one attack experiment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttackOutcome {
    /// Victims, in removal order.
    pub removed: Vec<u32>,
    /// Whether all surviving nodes can still reach each other.
    pub survivors_connected: bool,
    /// Number of surviving nodes.
    pub survivors: usize,
}

/// Removes `a` nodes according to `strategy` and reports whether the
/// remaining network is still strongly connected.
///
/// For [`AttackStrategy::MinimumCut`], the attacker scouts 32 random pairs
/// with [`probe_smallest_cut`] and removes the smallest cut found if it
/// fits inside the budget `a` (without padding it); otherwise it falls back
/// to `a` random victims.
///
/// # Errors
///
/// Returns [`AttackError::BudgetExceedsNetwork`] when `a >= n` — the
/// attacker may not remove the whole network. (Earlier versions asserted;
/// the typed error lets campaign grids skip degenerate cells instead of
/// aborting the run.)
pub fn simulate_attack<R: Rng + ?Sized>(
    g: &DiGraph,
    a: usize,
    strategy: AttackStrategy,
    rng: &mut R,
) -> Result<AttackOutcome, AttackError> {
    let n = g.node_count();
    if a >= n {
        return Err(AttackError::BudgetExceedsNetwork {
            budget: a,
            nodes: n,
        });
    }
    let mut victims: Vec<u32> = match strategy {
        AttackStrategy::Random => {
            let mut all: Vec<u32> = (0..n as u32).collect();
            all.shuffle(rng);
            all.truncate(a);
            all
        }
        AttackStrategy::HighestDegree => {
            let mut all: Vec<u32> = (0..n as u32).collect();
            all.sort_by_key(|&v| std::cmp::Reverse(g.out_degree(v) + g.in_degree(v)));
            all.truncate(a);
            all
        }
        AttackStrategy::MinimumCut => {
            let mut all: Vec<u32> = (0..n as u32).collect();
            match probe_smallest_cut(g, &all, 32, rng) {
                Some(cut) if cut.len() <= a => cut,
                _ => {
                    all.shuffle(rng);
                    all
                }
            }
        }
    };
    victims.truncate(a);
    let removed_set: HashSet<u32> = victims.iter().copied().collect();
    let (survivor_graph, _) = g.remove_vertices(&removed_set);
    Ok(AttackOutcome {
        survivors_connected: is_strongly_connected(&survivor_graph),
        survivors: survivor_graph.node_count(),
        removed: victims,
    })
}

/// The min-cut-guided adversary's scouting probe: samples `probes` random
/// pairs from `candidates`, reads their minimum vertex cuts off one
/// [`VertexFlow`] built for `g`, and returns the smallest non-empty cut
/// found (`None` when every probed pair was adjacent, identical, or already
/// disconnected).
///
/// The live `kad_experiments` campaign's min-cut attacker calls this on
/// every minute's survivor snapshot.
pub fn probe_smallest_cut<R: Rng + ?Sized>(
    g: &DiGraph,
    candidates: &[u32],
    probes: usize,
    rng: &mut R,
) -> Option<Vec<u32>> {
    if candidates.len() < 3 {
        return None;
    }
    let mut kernel = VertexFlow::new(g);
    let mut best: Option<Vec<u32>> = None;
    for _ in 0..probes {
        let v = candidates[rng.random_range(0..candidates.len())];
        let w = candidates[rng.random_range(0..candidates.len())];
        let Some(cut) = kernel.min_cut(v, w) else {
            continue;
        };
        if cut.is_empty() {
            continue; // pair already disconnected
        }
        if best.as_ref().is_none_or(|b| cut.len() < b.len()) {
            best = Some(cut);
        }
    }
    best
}

/// Property check behind Equation 2: removing **any** set of fewer than
/// `κ(D)` vertices leaves the graph strongly connected. Probes `trials`
/// random sets; returns `true` if none disconnects the survivors.
pub fn equation2_holds<R: Rng + ?Sized>(g: &DiGraph, trials: usize, rng: &mut R) -> bool {
    let kappa = exact_min(g);
    if kappa <= 1 {
        return true; // nothing to remove within budget
    }
    let budget = (kappa - 1) as usize;
    for _ in 0..trials {
        let outcome = simulate_attack(g, budget, AttackStrategy::Random, rng)
            .expect("budget κ−1 ≤ n−2 always leaves survivors");
        if !outcome.survivors_connected {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgraph::generators::{
        bidirected_cycle, complete, gnp, paper_figure1, random_k_out_symmetric,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn removing_below_connectivity_never_disconnects() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(equation2_holds(&complete(8), 20, &mut rng));
        assert!(equation2_holds(&bidirected_cycle(9), 20, &mut rng));
    }

    #[test]
    fn min_cut_attack_disconnects_figure1() {
        // Figure 1's graph has a single articulation vertex (e); a min-cut
        // attacker with budget 1 kills it.
        let mut rng = SmallRng::seed_from_u64(2);
        let g = paper_figure1();
        let outcome =
            simulate_attack(&g, 1, AttackStrategy::MinimumCut, &mut rng).expect("budget < n");
        assert_eq!(outcome.removed, vec![4]);
        assert!(!outcome.survivors_connected);
        assert_eq!(outcome.survivors, 8);
    }

    #[test]
    fn random_attack_on_ring_with_budget_two_disconnects_sometimes() {
        // κ(bidirected ring) = 2, so budget 2 *can* disconnect — removing
        // two non-adjacent ring nodes splits it. Check it happens at least
        // once over several trials (and never with budget 1).
        let g = bidirected_cycle(10);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut disconnected = false;
        for _ in 0..50 {
            let o = simulate_attack(&g, 2, AttackStrategy::Random, &mut rng).expect("budget < n");
            disconnected |= !o.survivors_connected;
            let o1 = simulate_attack(&g, 1, AttackStrategy::Random, &mut rng).expect("budget < n");
            assert!(o1.survivors_connected, "budget 1 < κ=2 cannot disconnect");
        }
        assert!(disconnected, "budget κ should disconnect eventually");
    }

    /// The min-cut attacker's victims on three fixed seeds, pinned from the
    /// attacker's own scouting loop before it was replaced by
    /// [`probe_smallest_cut`]: same RNG draws, same first-smallest tie rule.
    /// Budget 3 is below every cut the 32 probes find (random fallback),
    /// budget 4 fits one; the next draw checks where the stream was left.
    #[test]
    fn min_cut_victims_are_pinned() {
        let g = random_k_out_symmetric(24, 3, &mut SmallRng::seed_from_u64(31));
        for (seed, budget, victims, next) in [
            (1, 3, vec![5, 9, 2], 4_818_658_302_970_458_788u64),
            (1, 4, vec![0, 3, 14, 21], 13_277_019_641_707_655_070),
            (2, 3, vec![9, 14, 3], 15_946_322_631_671_097_155),
            (2, 4, vec![8, 13, 18, 19], 1_223_682_486_090_006_759),
            (3, 3, vec![0, 3, 23], 11_083_180_119_630_865_500),
            (3, 4, vec![0, 2, 4, 20], 13_306_033_877_806_301_919),
        ] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let outcome = simulate_attack(&g, budget, AttackStrategy::MinimumCut, &mut rng)
                .expect("budget < n");
            assert_eq!(outcome.removed, victims, "seed {seed} budget {budget}");
            assert_eq!(outcome.survivors_connected, budget == 3);
            assert_eq!(rng.random::<u64>(), next, "seed {seed} budget {budget}");
        }
    }

    #[test]
    fn highest_degree_attack_picks_hubs() {
        // Star-ish graph: vertex 0 connected everywhere.
        let mut g = DiGraph::new(6);
        for v in 1..6 {
            g.add_edge(0, v);
            g.add_edge(v, 0);
        }
        let mut rng = SmallRng::seed_from_u64(4);
        let outcome =
            simulate_attack(&g, 1, AttackStrategy::HighestDegree, &mut rng).expect("budget < n");
        assert_eq!(outcome.removed, vec![0]);
        assert!(!outcome.survivors_connected);
    }

    #[test]
    fn attack_outcome_counts_survivors() {
        let g = complete(6);
        let mut rng = SmallRng::seed_from_u64(5);
        let outcome = simulate_attack(&g, 2, AttackStrategy::Random, &mut rng).expect("budget < n");
        assert_eq!(outcome.survivors, 4);
        assert_eq!(outcome.removed.len(), 2);
        assert!(outcome.survivors_connected, "complete graph survives");
    }

    #[test]
    fn budget_must_leave_a_node() {
        let g = complete(3);
        let mut rng = SmallRng::seed_from_u64(6);
        assert_eq!(
            simulate_attack(&g, 3, AttackStrategy::Random, &mut rng),
            Err(AttackError::BudgetExceedsNetwork {
                budget: 3,
                nodes: 3
            })
        );
        // The error formats without panicking (it feeds matrix logs).
        let message = AttackError::BudgetExceedsNetwork {
            budget: 3,
            nodes: 3,
        }
        .to_string();
        assert!(message.contains("budget 3"), "{message}");
    }

    fn all_vertices(g: &DiGraph) -> Vec<u32> {
        (0..g.node_count() as u32).collect()
    }

    #[test]
    fn probe_needs_three_candidates() {
        let g = bidirected_cycle(12);
        let mut rng = SmallRng::seed_from_u64(8);
        assert_eq!(probe_smallest_cut(&g, &[0, 6], 16, &mut rng), None);
        assert_eq!(probe_smallest_cut(&g, &[], 16, &mut rng), None);
    }

    #[test]
    fn probe_cuts_the_ring_in_two() {
        let g = bidirected_cycle(12);
        let mut rng = SmallRng::seed_from_u64(9);
        let cut = probe_smallest_cut(&g, &all_vertices(&g), 16, &mut rng).expect("κ = 2 ring");
        assert_eq!(cut.len(), 2);
        let (survivors, _) = g.remove_vertices(&cut.iter().copied().collect());
        assert!(!is_strongly_connected(&survivors));
    }

    #[test]
    fn probe_finds_figure1_articulation() {
        let g = paper_figure1();
        let mut rng = SmallRng::seed_from_u64(2);
        let cut = probe_smallest_cut(&g, &all_vertices(&g), 16, &mut rng);
        assert_eq!(cut, Some(vec![4]), "vertex e is the 1-cut");
    }

    #[test]
    fn probe_replays_from_the_same_seed() {
        let mut rng = SmallRng::seed_from_u64(10);
        let g = gnp(16, 0.3, &mut rng);
        let probe = |seed| {
            probe_smallest_cut(
                &g,
                &all_vertices(&g),
                16,
                &mut SmallRng::seed_from_u64(seed),
            )
        };
        assert!(probe(11).is_some());
        assert_eq!(probe(11), probe(11));
    }

    #[test]
    fn equation2_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..5 {
            let g = gnp(14, 0.5, &mut rng);
            assert!(equation2_holds(&g, 10, &mut rng));
        }
    }
}
