//! Connectivity reports: the per-snapshot measurement record.

use std::fmt;

/// Everything the analysis pipeline measures about one connectivity graph.
///
/// One of these is produced per snapshot; the experiment harness strings
/// them into the time series that appear as the paper's figures.
#[derive(Clone, Debug, PartialEq)]
pub struct ConnectivityReport {
    /// Vertices in the connectivity graph (= alive nodes).
    pub node_count: usize,
    /// Directed edges (= routing-table entries to alive nodes).
    pub edge_count: usize,
    /// Minimum connectivity: `κ` over the evaluated pairs combined with
    /// the strong-connectivity pre-check (0 whenever the graph is not
    /// strongly connected).
    pub min_connectivity: u64,
    /// Mean connectivity over the evaluated pairs — the "Avg" curves.
    /// `None` when the sweep ran with cutoff pruning, whose per-pair values
    /// are lower bounds with no meaningful mean.
    pub avg_connectivity: Option<f64>,
    /// Whether the graph was strongly connected.
    pub strongly_connected: bool,
    /// Nodes outside the largest strongly connected component — the
    /// "single digit number of disconnected nodes" the paper blames for
    /// zero connectivity after setup.
    pub disconnected_nodes: usize,
    /// Fraction of edges whose reverse also exists; the paper's
    /// near-undirectedness claim that justifies sampling.
    pub reciprocity: f64,
    /// Non-adjacent pairs whose flow was actually computed.
    pub pairs_evaluated: usize,
    /// Source vertices used by the sweep.
    pub sources_used: usize,
    /// Evaluated pairs with flow 0 — the direct count of "unreachable
    /// pair" witnesses behind a zero minimum (the paper attributes these
    /// to a single-digit number of disconnected nodes).
    pub zero_pairs: usize,
}

impl ConnectivityReport {
    /// The resilience of the network: `r = κ(D) − 1` (Equation 2). A
    /// network with connectivity 0 tolerates no compromised nodes.
    pub fn resilience(&self) -> u64 {
        self.min_connectivity.saturating_sub(1)
    }

    /// Average out-degree of the connectivity graph.
    pub fn avg_out_degree(&self) -> f64 {
        if self.node_count == 0 {
            0.0
        } else {
            self.edge_count as f64 / self.node_count as f64
        }
    }
}

impl fmt::Display for ConnectivityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let avg = match self.avg_connectivity {
            Some(v) => format!("{v:.2}"),
            None => "n/a".to_string(),
        };
        write!(
            f,
            "n={} m={} κ_min={} κ_avg={} resilience={}{}",
            self.node_count,
            self.edge_count,
            self.min_connectivity,
            avg,
            self.resilience(),
            if self.strongly_connected {
                ""
            } else {
                " (not strongly connected)"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(min: u64) -> ConnectivityReport {
        ConnectivityReport {
            node_count: 10,
            edge_count: 40,
            min_connectivity: min,
            avg_connectivity: Some(5.0),
            strongly_connected: min > 0,
            disconnected_nodes: 0,
            reciprocity: 1.0,
            pairs_evaluated: 90,
            sources_used: 10,
            zero_pairs: usize::from(min == 0),
        }
    }

    #[test]
    fn resilience_is_kappa_minus_one() {
        assert_eq!(report(5).resilience(), 4);
        assert_eq!(report(1).resilience(), 0);
        assert_eq!(report(0).resilience(), 0, "saturates at zero");
    }

    #[test]
    fn avg_out_degree() {
        assert!((report(3).avg_out_degree() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_disconnection() {
        assert!(!report(3).to_string().contains("not strongly"));
        assert!(report(0).to_string().contains("not strongly connected"));
    }

    #[test]
    fn display_handles_unknown_average() {
        let mut r = report(3);
        assert!(r.to_string().contains("κ_avg=5.00"));
        r.avg_connectivity = None;
        assert!(r.to_string().contains("κ_avg=n/a"));
    }
}
