//! The resilience arithmetic of Section 4.5 (Equation 2).
//!
//! A network is *r-resilient* when any pair of nodes can still communicate
//! after `r` nodes have been compromised. Since each compromised node cuts
//! at most one of the `κ(D)` node-disjoint paths between a pair, Equation 2
//! relates connectivity `κ`, resilience `r` and attacker strength `a`:
//!
//! ```text
//! κ(D) > r ≥ a
//! ```

/// The resilience of a network with connectivity `kappa`: `r = κ(D) − 1`.
///
/// # Example
///
/// ```
/// use kad_resilience::resilience::resilience_from_connectivity;
/// assert_eq!(resilience_from_connectivity(20), 19);
/// assert_eq!(resilience_from_connectivity(0), 0);
/// ```
pub fn resilience_from_connectivity(kappa: u64) -> u64 {
    kappa.saturating_sub(1)
}

/// The connectivity required to tolerate `a` compromised nodes:
/// `κ(D) > a`, i.e. at least `a + 1`.
pub fn required_connectivity(attackers: u64) -> u64 {
    attackers + 1
}

/// The paper's headline dimensioning rule (Section 6): to reach resilience
/// `r` the bucket size must exceed it, `k > r` — so at least `r + 1`.
pub fn required_bucket_size(resilience: u64) -> usize {
    (resilience + 1) as usize
}

/// Whether a network with connectivity `kappa` tolerates `a` compromised
/// nodes (Equation 2 with `r = a`).
pub fn tolerates(kappa: u64, attackers: u64) -> bool {
    kappa > attackers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation2_chain() {
        // κ > r ≥ a: with κ = 21 the network is 20-resilient and tolerates
        // any a ≤ 20.
        let kappa = 21;
        let r = resilience_from_connectivity(kappa);
        assert_eq!(r, 20);
        for a in 0..=r {
            assert!(tolerates(kappa, a));
        }
        assert!(!tolerates(kappa, kappa));
    }

    #[test]
    fn required_connectivity_inverts_tolerates() {
        for a in 0u64..50 {
            let k = required_connectivity(a);
            assert!(tolerates(k, a));
            assert!(!tolerates(k - 1, a));
        }
    }

    #[test]
    fn bucket_size_rule() {
        assert_eq!(required_bucket_size(19), 20);
        assert_eq!(required_bucket_size(0), 1);
    }

    #[test]
    fn zero_connectivity_tolerates_nothing() {
        assert!(!tolerates(0, 0));
        assert_eq!(resilience_from_connectivity(0), 0);
    }

    #[test]
    fn graph_resilience_matches_exact_connectivity() {
        use crate::kappa::{analyze_graph, exact_min};
        use crate::AnalysisConfig;
        use flowgraph::generators::{bidirected_cycle, cycle};
        // κ = 2 ring → r = 1; κ = 1 directed cycle → r = 0; and the kernel
        // agrees with the explicit per-pair baseline.
        for (g, r) in [(bidirected_cycle(9), 1), (cycle(9), 0)] {
            assert_eq!(resilience_from_connectivity(exact_min(&g)), r);
            for batched in [true, false] {
                let config = AnalysisConfig {
                    batched,
                    ..AnalysisConfig::exact()
                };
                assert_eq!(analyze_graph(&g, &config).resilience(), r);
            }
        }
    }
}
